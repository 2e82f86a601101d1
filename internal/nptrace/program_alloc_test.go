package nptrace_test

import (
	"testing"

	"repro/internal/expcuts"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// TestProgramAllocations holds a recorded access program to two heap
// allocations, the Recorder and the program's steps, on the ExpCuts and
// HiCuts trees and the HSM tables of CR04, and checks that two programs
// never share a backing array — the recorder's storage is reused, a
// returned program's is not. Linear search is left out: its CR04 programs
// average 962.8 steps, and a recorder sized for them would zero 15 KB for
// every other algorithm's 26- to 40-step walk.
func TestProgramAllocations(t *testing.T) {
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1000, Seed: 7, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ec, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := hicuts.New(rs, hicuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hsm.New(rs, hsm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		program func(rules.Header) nptrace.Program
	}{{"expcuts", ec.Program}, {"hicuts", hc.Program}, {"hsm", hs.Program}} {
		i := 0
		if n := testing.AllocsPerRun(len(tr.Headers), func() {
			c.program(tr.Headers[i%len(tr.Headers)])
			i++
		}); n > 2 {
			t.Errorf("%s: Program makes %.2f allocations per call, want <= 2", c.name, n)
		}
		a, b := c.program(tr.Headers[0]), c.program(tr.Headers[0])
		if len(a.Steps) == 0 || &a.Steps[0] == &b.Steps[0] {
			t.Errorf("%s: two programs of %d steps share a backing array", c.name, len(a.Steps))
		}
	}

	r := nptrace.NewRecorder(ec.Image())
	first := r.Finish(ec.Lookup(r, tr.Headers[0]))
	second := r.Finish(ec.Lookup(r, tr.Headers[0]))
	if len(first.Steps) == 0 || &first.Steps[0] == &second.Steps[0] {
		t.Errorf("one recorder's two programs share a backing array")
	}
}
