package update

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/rules"
)

// oracleClassifier answers exactly like the linear oracle, so it always
// passes shadow validation.
type oracleClassifier struct{ rs *rules.RuleSet }

func (o oracleClassifier) Classify(h rules.Header) int { return o.rs.Match(h) }
func (o oracleClassifier) MemoryBytes() int            { return 0 }

func oracleRung(name string) Rung {
	return Rung{Name: name, Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
		return oracleClassifier{rs: rs}, nil
	}}
}

// countingFailRung fails every build (or succeeds when *ok is set) and
// counts invocations.
type countingFailRung struct {
	calls atomic.Int64
	ok    atomic.Bool
}

func (c *countingFailRung) rung(name string) Rung {
	return Rung{Name: name, Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
		c.calls.Add(1)
		if c.ok.Load() {
			return oracleClassifier{rs: rs}, nil
		}
		return nil, errors.New("scripted build failure")
	}}
}

func ladderTestRules() *rules.RuleSet {
	return rules.NewRuleSet("ladder", []rules.Rule{
		{SrcPort: rules.PortRange{Lo: 80, Hi: 80}, DstPort: rules.PortRange{Lo: 0, Hi: 65535}, Proto: rules.ProtoMatch{Wildcard: true}},
		{SrcPort: rules.PortRange{Lo: 0, Hi: 65535}, DstPort: rules.PortRange{Lo: 0, Hi: 65535}, Proto: rules.ProtoMatch{Wildcard: true}},
	})
}

func someOp() []Op {
	return []Op{InsertAt(0, rules.Rule{
		SrcPort: rules.PortRange{Lo: 1, Hi: 1}, DstPort: rules.PortRange{Lo: 0, Hi: 65535},
		Proto: rules.ProtoMatch{Wildcard: true},
	})}
}

// fakeClock drives m.now deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// The base is the real now: constructor-time rebuilds run before the
// fake clock is installed and stamp breakers with time.Now().
func newFakeClock() *fakeClock              { return &fakeClock{t: time.Now()} }
func installClock(m *Manager, c *fakeClock) { m.now = c.now }

// A rung that keeps failing opens its breaker after BreakerThreshold
// consecutive failed rebuilds; while open, further rebuilds skip it
// entirely instead of re-paying the doomed build.
func TestBreakerOpensAndSkipsRung(t *testing.T) {
	var flaky countingFailRung
	m, err := NewManagerLadder(ladderTestRules(),
		[]Rung{flaky.rung("flaky"), oracleRung("fallback")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	installClock(m, newFakeClock())
	failToThreshold(t, m, &flaky)

	// Open breaker: the next rebuild must not touch the rung.
	if err := m.Apply(someOp()); err != nil {
		t.Fatal(err)
	}
	if got := flaky.calls.Load(); got != BreakerThreshold {
		t.Fatalf("open breaker still let the rung run (%d calls)", got)
	}
	if h := m.Health(); h.ActiveAlgorithm != "fallback" || h.DegradationLevel != 1 {
		t.Fatalf("health = %q/%d, want fallback/1", h.ActiveAlgorithm, h.DegradationLevel)
	}
}

// failToThreshold drives the failing rung through BreakerThreshold
// consecutive failed rebuilds (the constructor's is the first) and checks
// that the breaker stays closed until the last of them opens it.
func failToThreshold(t *testing.T, m *Manager, flaky *countingFailRung) {
	t.Helper()
	for fails := 1; ; fails++ {
		if got := flaky.calls.Load(); got != int64(fails) {
			t.Fatalf("rung invoked %d times after %d rebuild(s), want %d", got, fails, fails)
		}
		want := "closed"
		if fails == BreakerThreshold {
			want = "open"
		}
		if b := m.Health().Breakers[0]; b.State != want || b.ConsecutiveFailures != fails {
			t.Fatalf("breaker after %d failure(s) = %+v, want %s", fails, b, want)
		}
		if fails == BreakerThreshold {
			return
		}
		if err := m.Apply(someOp()); err != nil {
			t.Fatal(err)
		}
	}
}

// After BreakerCooldown the breaker half-opens: one probe build runs,
// and a success closes the breaker and promotes the manager back to the
// preferred rung.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	var flaky countingFailRung
	m, err := NewManagerLadder(ladderTestRules(),
		[]Rung{flaky.rung("flaky"), oracleRung("fallback")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	installClock(m, clock)
	failToThreshold(t, m, &flaky)

	// Within the cooldown the rung is skipped.
	clock.advance(BreakerCooldown - time.Second)
	if err := m.Apply(someOp()); err != nil {
		t.Fatal(err)
	}
	if got := flaky.calls.Load(); got != BreakerThreshold {
		t.Fatalf("rung probed during cooldown (%d calls)", got)
	}
	if h := m.Health(); h.Breakers[0].State != "open" {
		t.Fatalf("breaker state %q, want open", h.Breakers[0].State)
	}

	// Past the cooldown the breaker half-opens and the probe heals the rung.
	clock.advance(2 * time.Second)
	if h := m.Health(); h.Breakers[0].State != "half-open" {
		t.Fatalf("breaker state %q after cooldown, want half-open", h.Breakers[0].State)
	}
	flaky.ok.Store(true)
	if err := m.Apply(someOp()); err != nil {
		t.Fatal(err)
	}
	if got := flaky.calls.Load(); got != BreakerThreshold+1 {
		t.Fatalf("half-open breaker did not probe exactly once (%d calls)", got)
	}
	h := m.Health()
	if h.ActiveAlgorithm != "flaky" || h.DegradationLevel != 0 {
		t.Fatalf("health = %q/%d, want flaky/0 after recovery", h.ActiveAlgorithm, h.DegradationLevel)
	}
	if h.Breakers[0].State != "closed" || h.Breakers[0].ConsecutiveFailures != 0 {
		t.Fatalf("breaker = %+v, want closed and reset", h.Breakers[0])
	}
}

// Budget trips are deterministic, so the manager must not retry them —
// one attempt, one BudgetTrips increment, straight down the ladder.
func TestBudgetTripIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	tripping := Rung{Name: "governed", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
		calls.Add(1)
		return nil, &buildgov.BudgetError{Limit: "nodes", Stats: buildgov.Stats{Nodes: 11}}
	}}
	m, err := NewManagerLadder(ladderTestRules(),
		[]Rung{tripping, oracleRung("fallback")},
		Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("budget-tripped rung attempted %d times, want exactly 1", got)
	}
	h := m.Health()
	if h.BudgetTrips != 1 {
		t.Fatalf("BudgetTrips = %d, want 1", h.BudgetTrips)
	}
	if h.ActiveAlgorithm != "fallback" {
		t.Fatalf("active algorithm %q, want fallback", h.ActiveAlgorithm)
	}
}

// A plain build error is as final as a budget trip: the rung is built
// once per rebuild, and the same rebuild publishes the next rung.
func TestPlainBuildErrorFallsThroughOnce(t *testing.T) {
	var flaky countingFailRung
	m, err := NewManagerLadder(ladderTestRules(),
		[]Rung{flaky.rung("flaky"), oracleRung("fallback")},
		Config{})
	if err != nil {
		t.Fatal(err)
	}
	for rebuild := int64(1); rebuild <= 2; rebuild++ {
		if got := flaky.calls.Load(); got != rebuild {
			t.Fatalf("after %d rebuild(s) the failing rung was built %d times, want %d", rebuild, got, rebuild)
		}
		h := m.Health()
		if h.Generation != uint64(rebuild) || h.ActiveAlgorithm != "fallback" || h.DegradationLevel != 1 {
			t.Fatalf("rebuild %d published %q/%d at generation %d, want fallback/1 at %d",
				rebuild, h.ActiveAlgorithm, h.DegradationLevel, h.Generation, rebuild)
		}
		if h.FailedBuilds != uint64(rebuild) {
			t.Fatalf("FailedBuilds = %d after %d rebuild(s)", h.FailedBuilds, rebuild)
		}
		if rebuild == 1 {
			if err := m.Apply(someOp()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The final rung is attempted even when its breaker is open: a servable
// generation beats breaker hygiene, and the default ladder's last rung
// is the total linear fallback.
func TestFinalRungAlwaysAttempted(t *testing.T) {
	m, err := NewManagerLadder(ladderTestRules(), []Rung{oracleRung("only")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	installClock(m, clock)
	m.mu.Lock()
	m.breakers[0] = breaker{fails: 99, openUntil: clock.t.Add(time.Hour)}
	m.mu.Unlock()
	if err := m.Apply(someOp()); err != nil {
		t.Fatalf("Apply failed with the sole (final) rung's breaker open: %v", err)
	}
	if h := m.Health(); h.ActiveAlgorithm != "only" {
		t.Fatalf("active algorithm %q, want only", h.ActiveAlgorithm)
	}
}

// DescribeAlgorithm reflects the live generation and survives Rollback.
func TestDescribeAlgorithmTracksGenerations(t *testing.T) {
	var flaky countingFailRung
	flaky.ok.Store(true)
	m, err := NewManagerLadder(ladderTestRules(),
		[]Rung{flaky.rung("best"), oracleRung("fallback")},
		Config{})
	if err != nil {
		t.Fatal(err)
	}
	if algo, lvl := m.DescribeAlgorithm(); algo != "best" || lvl != 0 {
		t.Fatalf("describe = %q/%d, want best/0", algo, lvl)
	}
	// Break the best rung; the next Apply degrades.
	flaky.ok.Store(false)
	if err := m.Apply(someOp()); err != nil {
		t.Fatal(err)
	}
	if algo, lvl := m.DescribeAlgorithm(); algo != "fallback" || lvl != 1 {
		t.Fatalf("describe = %q/%d after degradation, want fallback/1", algo, lvl)
	}
	// Rollback reinstates the previous generation's attribution.
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	if algo, lvl := m.DescribeAlgorithm(); algo != "best" || lvl != 0 {
		t.Fatalf("describe = %q/%d after rollback, want best/0", algo, lvl)
	}
}
