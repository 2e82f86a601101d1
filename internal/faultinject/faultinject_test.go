// The cross-package robustness suite: every injector drives a real
// runtime component — the parallel engine, the update manager, the SRAM
// image loader, the pipeline simulator — and asserts the failure is
// contained to a defined outcome: an error result, a refused swap, a
// rollback, or a counted shed. Never a crash, never a leaked goroutine.
package faultinject

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/pipeline"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
)

func fixtures(t *testing.T, n int) (*rules.RuleSet, *expcuts.Tree, []rules.Header) {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 100, Seed: 601})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: n, Seed: 602, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return rs, tree, tr.Headers
}

func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEveryFailureModeDegradesGracefully is the acceptance matrix of the
// hardened runtime: one subtest per injected fault class.
func TestEveryFailureModeDegradesGracefully(t *testing.T) {
	rs, tree, headers := fixtures(t, 4000)

	t.Run("worker-panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		panicky := &PanickyClassifier{Inner: tree, EveryN: 250}
		var contained int
		st, err := engine.Run(panicky, engine.Config{Shards: 4, PreserveOrder: true}, headers,
			func(r engine.Result) {
				if r.Err != nil {
					contained++
				}
			})
		if err == nil {
			t.Error("run with injected panics reported success")
		}
		if contained == 0 || st.Panics != contained {
			t.Errorf("contained %d panics, stats say %d", contained, st.Panics)
		}
		if st.Packets+st.Panics != len(headers) {
			t.Errorf("packet accounting broken: %+v over %d headers", st, len(headers))
		}
		waitNoLeaks(t, base)
	})

	t.Run("deadline-expiry", func(t *testing.T) {
		base := runtime.NumGoroutine()
		slow := &SlowClassifier{Inner: tree, EveryN: 1, Delay: 100 * time.Microsecond}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		defer cancel()
		st, err := engine.RunContext(ctx, slow, engine.Config{Shards: 2}, headers, func(engine.Result) {})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want deadline exceeded", err)
		}
		if st.Canceled == 0 {
			t.Error("nothing marked canceled on an expired deadline")
		}
		waitNoLeaks(t, base)
	})

	t.Run("overload-shed", func(t *testing.T) {
		base := runtime.NumGoroutine()
		slow := &SlowClassifier{Inner: tree, EveryN: 1, Delay: 30 * time.Microsecond}
		st, err := engine.Run(slow,
			engine.Config{QueueDepth: 1, Overload: engine.OverloadShed},
			headers, func(engine.Result) {})
		if err != nil {
			t.Errorf("shedding must not fail the run: %v", err)
		}
		if st.Shed == 0 {
			t.Error("overloaded run shed nothing")
		}
		if st.Packets+st.Shed != len(headers) {
			t.Errorf("shed accounting broken: %+v", st)
		}
		waitNoLeaks(t, base)
	})

	t.Run("builder-failure", func(t *testing.T) {
		good := func(r *rules.RuleSet) (update.Classifier, error) { return expcuts.New(r, expcuts.Config{}) }
		fb := &FlakyBuilder{Inner: good, Failures: 1}
		build := good
		m, err := update.NewManager(rs, func(r *rules.RuleSet) (update.Classifier, error) { return build(r) })
		if err != nil {
			t.Fatal(err)
		}
		// One scripted failure: the rebuild it lands in fails its Apply
		// after one attempt, and the live generation keeps serving.
		build = fb.Build
		genBefore := m.Generation()
		op := update.InsertAt(0, rules.Rule{
			SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto,
		})
		if err := m.Apply([]update.Op{op}); !errors.Is(err, ErrInjectedBuild) {
			t.Fatalf("err = %v, want ErrInjectedBuild in the chain", err)
		}
		if got := fb.Attempts(); got != 1 {
			t.Errorf("builder attempts = %d, want 1 (builds are not retried)", got)
		}
		if m.Generation() != genBefore {
			t.Error("generation advanced past a failed build")
		}
		for _, h := range headers[:200] {
			if got, want := m.Classify(h), rs.Match(h); got != want {
				t.Fatalf("live generation misclassified %v after a failed rebuild: %d, want %d", h, got, want)
			}
		}
		// The next build is good and swaps in.
		if err := m.Apply([]update.Op{op}); err != nil {
			t.Fatalf("apply after the scripted failure: %v", err)
		}
		if m.Generation() != genBefore+1 {
			t.Errorf("generation %d, want %d", m.Generation(), genBefore+1)
		}
		// A permanently failing builder refuses to construct at all.
		broken, err2 := update.NewManager(rs, FailingBuilder)
		if err2 == nil || broken != nil {
			t.Error("manager built with a builder that can never succeed")
		}
		if !errors.Is(err2, ErrInjectedBuild) {
			t.Errorf("err = %v, want ErrInjectedBuild in the chain", err2)
		}
	})

	t.Run("miscompiled-candidate", func(t *testing.T) {
		good := func(r *rules.RuleSet) (update.Classifier, error) { return expcuts.New(r, expcuts.Config{}) }
		builds := 0
		m, err := update.NewManager(rs, func(r *rules.RuleSet) (update.Classifier, error) {
			builds++
			if builds == 1 {
				return good(r)
			}
			cl, err := good(r)
			if err != nil {
				return nil, err
			}
			return &WrongClassifier{Inner: cl, EveryN: 7}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		genBefore := m.Generation()
		op := update.InsertAt(0, rules.Rule{
			SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto,
		})
		if err := m.Apply([]update.Op{op}); err == nil {
			t.Fatal("shadow validation let a lying classifier go live")
		}
		if m.Generation() != genBefore {
			t.Error("generation advanced past a rejected candidate")
		}
		if h := m.Health(); h.FailedValidations == 0 {
			t.Errorf("health did not count the rejection: %+v", h)
		}
	})

	t.Run("corrupt-image", func(t *testing.T) {
		var buf bytes.Buffer
		if err := tree.Image().Save(&buf); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		if _, err := memlayout.LoadImage(bytes.NewReader(clean)); err != nil {
			t.Fatalf("clean image rejected: %v", err)
		}
		// Every seeded corruption and truncation must load as an error.
		for seed := int64(1); seed <= 20; seed++ {
			if _, err := memlayout.LoadImage(bytes.NewReader(Corrupt(clean, seed))); err == nil {
				t.Errorf("seed %d: corrupted image loaded cleanly", seed)
			}
		}
		for _, n := range []int{0, 3, 4, 7, 8, len(clean) / 2, len(clean) - 1} {
			if _, err := memlayout.LoadImage(bytes.NewReader(Truncate(clean, n))); err == nil {
				t.Errorf("truncation to %d bytes loaded cleanly", n)
			}
		}
	})

	t.Run("corrupt-program", func(t *testing.T) {
		// A program pointing at a nonexistent SRAM channel must be refused
		// by validation, not crash the simulator.
		progs := []nptrace.Program{{Steps: []nptrace.Step{{Channel: 9, Words: 1}}}}
		if _, err := pipeline.RunMultiprocessing(pipeline.DefaultAppConfig(), progs, 100); err == nil {
			t.Error("out-of-range channel accepted by the pipeline")
		}
	})
}

// TestInjectorsAreDeterministic pins the reproducibility contract.
func TestInjectorsAreDeterministic(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	if !bytes.Equal(Corrupt(data, 7), Corrupt(data, 7)) {
		t.Error("Corrupt is not deterministic for a fixed seed")
	}
	if bytes.Equal(Corrupt(data, 7), Corrupt(data, 8)) {
		t.Error("different seeds produced identical corruption (possible, but this pair is pinned)")
	}
	if bytes.Equal(Corrupt(data, 7), data) {
		t.Error("Corrupt returned the input unchanged")
	}
	flipped := FlipBit(data, 11)
	if bytes.Equal(flipped, data) {
		t.Error("FlipBit changed nothing")
	}
	if !bytes.Equal(FlipBit(flipped, 11), data) {
		t.Error("FlipBit is not an involution")
	}
	p := &PanickyClassifier{Inner: FixedClassifier{Match: 3}, EveryN: 2}
	if got := p.Classify(rules.Header{}); got != 3 {
		t.Errorf("call 1 = %d, want 3", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("call 2 did not panic with EveryN=2")
			}
		}()
		p.Classify(rules.Header{})
	}()
	if p.Calls() != 2 {
		t.Errorf("Calls = %d, want 2", p.Calls())
	}
}
