package main

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rules"
)

func TestManifestIsBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

// The limits the driver refuses a BENCHMARK.json over.
func TestCatalogWithinTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if u != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if n := len(gated()); n < 2 || n > 8 {
		t.Errorf("%d gated workloads", n)
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.setupReps < 2 {
			t.Errorf("%s: setup_s must be taken from several set-ups", w.Name)
		}
	}
	var setup *e2eDef
	for i, d := range endToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if setup != nil && d.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, d := range append(append([]layerDef(nil), perLayer...), handLayer...) {
		check(d.Name, d.Unit, d.Better)
	}
	if n := len(manifest()); n > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", n)
	}
}

// smokePresets is what the smoke tests build on: with -short the smallest
// preset of each family, so that tier-1 can afford every workload and
// every ledger; otherwise the measured ones.
func smokePresets() presets {
	if testing.Short() {
		return presets{cr: "CR01", acl: "ACL1_1K", flows: 1 << 16}
	}
	return measured
}

// smokeOpts is a window long enough to exercise every code path and far
// too short to time anything.
func smokeOpts(w *workloadDef) runOpts {
	return runOpts{warm: 50 * time.Millisecond, timed: 200 * time.Millisecond, tailPct: w.tailPct}
}

// TestEveryWorkloadSmoke runs all seven workloads, untraced and traced,
// and their ledgers. It checks verdicts, accounting and that every name
// is one the catalog lists, not speed.
func TestEveryWorkloadSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			known := map[string]bool{}
			for _, d := range ledgerOf(w) {
				known[d.Name] = true
			}
			e, err := w.setup(smokePresets(), defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.prepare(); err != nil {
				t.Fatal(err)
			}
			o := smokeOpts(w)
			lc := &ledgerCtx{opts: o, m: map[string]float64{}}
			// A generator that ran late (the race detector slows it, so
			// does a busy host) spoils a measurement, not this test.
			if lc.untraced, err = e.run(o); err != nil && !errors.Is(err, errSpoiled) {
				t.Fatal(err)
			}
			o.rec = newRecorder(1 << 16)
			if lc.traced, err = e.run(o); err != nil && !errors.Is(err, errSpoiled) {
				t.Fatalf("traced: %v", err)
			}
			for _, out := range []outcome{lc.untraced, lc.traced} {
				if out.attempted == 0 || out.failed != 0 {
					t.Errorf("%d of %d operations failed", out.failed, out.attempted)
				}
				if out.rate.perSec <= 0 || out.lat.p50us <= 0 || out.lat.tailUs < out.lat.p50us || e.memBytes() <= 0 {
					t.Errorf("an end-to-end metric is zero: rate %v latency %+v", out.rate.perSec, out.lat)
				}
			}
			lc.opts.rec, lc.spans = o.rec, o.rec.recorded()
			if len(lc.spans) == 0 {
				t.Error("the traced run recorded no span")
			}
			if err := e.ledger(lc); err != nil {
				t.Fatalf("ledger: %v", err)
			}
			for k := range lc.m {
				if !known[k] {
					t.Errorf("ledger filled in %q, which the catalog does not list", k)
				}
			}
			for k := range lc.traced.layer {
				if !known[k] {
					t.Errorf("run reported %q, which the catalog does not list", k)
				}
			}
		})
	}
}

// perPacket gives a Classify-only classifier the batch method the
// harness serves through.
type perPacket struct {
	inner interface{ Classify(rules.Header) int }
}

func (p perPacket) Classify(h rules.Header) int { return p.inner.Classify(h) }
func (p perPacket) ClassifyBatch(hs []rules.Header, out []int) {
	for i, h := range hs {
		out[i] = p.inner.Classify(h)
	}
}

// A classifier that answers wrongly now and then must show up as failed
// operations, which is what makes the command exit non-zero.
func TestWrongAnswersAreCounted(t *testing.T) {
	w := findWorkload("mem_uniform")
	env, err := w.setup(smokePresets(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	e := env.(*memEnv)
	if err := e.prepare(); err != nil {
		t.Fatal(err)
	}
	e.serve.cl = perPacket{&faultinject.WrongClassifier{Inner: e.base.tree, EveryN: 1000}}
	out, err := e.run(smokeOpts(w))
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Errorf("a classifier wrong once in 1000 packets went unnoticed over %d packets", out.attempted)
	}
}
