package update

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/expcuts"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

func insertOp() Op {
	return InsertAt(0, rules.Rule{
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
		Proto: rules.AnyProto, Action: rules.ActionDeny,
	})
}

// A flaky builder fails the rebuild it fails in: that Apply returns an
// error and the live generation keeps serving; the next good build swaps
// in. Nothing is retried inside a rebuild.
func TestFlakyBuilderEventuallySwaps(t *testing.T) {
	m, rs := newManager(t)
	calls := 0
	m.ladder[0].Build = func(_ context.Context, r *rules.RuleSet) (Classifier, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("injected build failure")
		}
		return expcuts.New(r, expcuts.Config{})
	}
	genBefore := m.Generation()
	if err := m.Apply([]Op{insertOp()}); err == nil {
		t.Fatal("apply over a failing build succeeded")
	}
	if calls != 1 {
		t.Fatalf("failing rebuild built %d times, want 1", calls)
	}
	if m.Generation() != genBefore {
		t.Fatalf("generation moved to %d on a failed rebuild", m.Generation())
	}
	checkAgainstSnapshot(t, m, headers(t, rs, 200))
	if err := m.Apply([]Op{insertOp()}); err != nil {
		t.Fatalf("apply over a good build failed: %v", err)
	}
	if m.Generation() != genBefore+1 {
		t.Errorf("generation %d, want %d", m.Generation(), genBefore+1)
	}
	if h := m.Health(); h.FailedBuilds != 1 || h.LastError != "" {
		t.Errorf("health after the good build: %+v", h)
	}
}

func TestBuilderExhaustionLeavesLiveGeneration(t *testing.T) {
	m, rsOrig := newManager(t)
	m.ladder[0].Build = func(context.Context, *rules.RuleSet) (Classifier, error) {
		return nil, errors.New("injected build failure")
	}
	snapBefore, genBefore := m.Snapshot()
	err := m.Apply([]Op{insertOp()})
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want rolled-back rebuild failure", err)
	}
	if g := m.Generation(); g != genBefore {
		t.Errorf("generation moved to %d", g)
	}
	snapAfter, _ := m.Snapshot()
	if len(snapAfter) != len(snapBefore) {
		t.Error("rule list changed after exhausted rebuild")
	}
	h := m.Health()
	if h.FailedBuilds != 1 {
		t.Errorf("health: %+v", h)
	}
	if h.LastError == "" {
		t.Error("LastError empty after failed apply")
	}
	// The classifier must still serve.
	checkAgainstSnapshot(t, m, headers(t, rsOrig, 200))
}

// wrongEveryN misclassifies every Nth lookup — a miscompiled candidate.
type wrongEveryN struct {
	inner Classifier
	n     int
	count int
}

func (w *wrongEveryN) Classify(h rules.Header) int {
	w.count++
	m := w.inner.Classify(h)
	if w.n > 0 && w.count%w.n == 0 {
		return m + 1
	}
	return m
}
func (w *wrongEveryN) MemoryBytes() int { return w.inner.MemoryBytes() }

func TestValidationRejectsMiscompiledCandidate(t *testing.T) {
	m, _ := newManager(t)
	m.ladder[0].Build = func(_ context.Context, r *rules.RuleSet) (Classifier, error) {
		cl, err := expcuts.New(r, expcuts.Config{})
		if err != nil {
			return nil, err
		}
		return &wrongEveryN{inner: cl, n: 10}, nil
	}
	genBefore := m.Generation()
	err := m.Apply([]Op{insertOp()})
	if err == nil || !strings.Contains(err.Error(), "validation failed") {
		t.Fatalf("err = %v, want shadow-validation rejection", err)
	}
	if m.Generation() != genBefore {
		t.Error("miscompiled candidate went live")
	}
	if h := m.Health(); h.FailedValidations != 1 {
		t.Errorf("FailedValidations = %d, want 1", h.FailedValidations)
	}
}

// panicky panics on every lookup.
type panicky struct{}

func (panicky) Classify(rules.Header) int { panic("candidate classifier explodes") }
func (panicky) MemoryBytes() int          { return 4 }

func TestValidationContainsPanickyCandidate(t *testing.T) {
	m, rsOrig := newManager(t)
	m.ladder[0].Build = func(context.Context, *rules.RuleSet) (Classifier, error) { return panicky{}, nil }
	if err := m.Apply([]Op{insertOp()}); err == nil {
		t.Fatal("panicking candidate must be rejected, not installed")
	}
	// Still serving the old generation, and the panic never escaped.
	checkAgainstSnapshot(t, m, headers(t, rsOrig, 200))
}

func TestValidationDisabled(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 40, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	// With validation off, even a constant classifier goes live — the
	// escape hatch for callers doing their own conformance testing.
	constant := func(*rules.RuleSet) (Classifier, error) {
		return &wrongEveryN{inner: nopClassifier{}, n: 0}, nil
	}
	if _, err := NewManagerConfig(rs, constant, Config{ValidateSamples: -1}); err != nil {
		t.Fatalf("validation-off build failed: %v", err)
	}
	if _, err := NewManagerConfig(rs, constant, Config{}); err == nil {
		t.Fatal("default config accepted a constant classifier")
	}
}

type nopClassifier struct{}

func (nopClassifier) Classify(rules.Header) int { return 0 }
func (nopClassifier) MemoryBytes() int          { return 4 }

func TestRollbackRestoresPreviousGeneration(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 400)
	snapV1, _ := m.Snapshot()
	if err := m.Apply([]Op{insertOp()}); err != nil {
		t.Fatal(err)
	}
	if !m.Health().CanRollback {
		t.Fatal("no rollback target after a successful apply")
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	snapNow, gen := m.Snapshot()
	if gen != 3 { // build, apply, rollback
		t.Errorf("generation = %d, want 3", gen)
	}
	if len(snapNow) != len(snapV1) {
		t.Fatalf("rollback rules: %d, want %d", len(snapNow), len(snapV1))
	}
	for i := range snapNow {
		if snapNow[i] != snapV1[i] {
			t.Fatalf("rule %d differs after rollback", i)
		}
	}
	checkAgainstSnapshot(t, m, hs)
	if h := m.Health(); h.Rollbacks != 1 {
		t.Errorf("Rollbacks = %d, want 1", h.Rollbacks)
	}
	// Rolling back again returns to the inserted-rule generation.
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	snapBack, _ := m.Snapshot()
	if len(snapBack) != len(snapV1)+1 {
		t.Errorf("double rollback length %d, want %d", len(snapBack), len(snapV1)+1)
	}
	checkAgainstSnapshot(t, m, hs)
}

func TestRollbackWithoutHistoryFails(t *testing.T) {
	m, _ := newManager(t)
	if err := m.Rollback(); err == nil {
		t.Fatal("fresh manager has nothing to roll back to")
	}
	if h := m.Health(); h.CanRollback || h.LastError == "" {
		t.Errorf("health after refused rollback: %+v", h)
	}
}

// TestConcurrentReadersDuringFlakyRebuilds hammers Classify from reader
// goroutines while the writer drives alternating failing and succeeding
// rebuilds and a rollback. Run with -race; readers must always observe a
// coherent generation, a failed rebuild must leave the live generation
// serving, and the next good build must swap in.
func TestConcurrentReadersDuringFlakyRebuilds(t *testing.T) {
	m, rs := newManager(t)
	good := m.ladder[0].Build
	builds := 0
	m.ladder[0].Build = func(ctx context.Context, r *rules.RuleSet) (Classifier, error) {
		builds++
		if builds%2 == 1 { // every other rebuild fails
			return nil, errors.New("injected build failure")
		}
		return good(ctx, r)
	}
	hs := headers(t, rs, 1000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := hs[i%len(hs)]
				i++
				snapBefore, genBefore := m.Snapshot()
				got := m.Classify(h)
				_, genAfter := m.Snapshot()
				if genBefore != genAfter {
					continue // an update raced this lookup
				}
				if want := rules.NewRuleSet("s", snapBefore).Match(h); got != want {
					t.Errorf("racing Classify = %d, generation oracle %d", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		genBefore := m.Generation()
		err := m.Apply([]Op{insertOp()})
		switch {
		case i%2 == 0 && (err == nil || m.Generation() != genBefore):
			t.Errorf("apply %d over a failing build: err %v, generation %d -> %d", i, err, genBefore, m.Generation())
		case i%2 == 1 && (err != nil || m.Generation() != genBefore+1):
			t.Errorf("apply %d over a good build: err %v, generation %d -> %d", i, err, genBefore, m.Generation())
		}
		if i == 5 {
			if err := m.Rollback(); err != nil {
				t.Errorf("rollback: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	h := m.Health()
	if h.FailedBuilds != 5 {
		t.Errorf("FailedBuilds = %d, want 5 (one per failing rebuild): %+v", h.FailedBuilds, h)
	}
	if h.Rollbacks != 1 {
		t.Errorf("Rollbacks = %d, want 1", h.Rollbacks)
	}
}
