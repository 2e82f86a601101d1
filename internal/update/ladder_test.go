package update_test

// End-to-end degradation-ladder proof with the real builders: a rule set
// hostile to every sophisticated algorithm, under a tiny budget, walks
// the default ladder to its total linear rung — and the resulting
// manager still classifies every sampled header exactly like the oracle.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/faultinject"
	"repro/internal/pktgen"
	"repro/internal/update"
)

func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
}

func TestDefaultLadderLandsOnLinearAndMatchesOracle(t *testing.T) {
	base := runtime.NumGoroutine()
	storm := faultinject.WildcardStorm("storm", 200, 7)
	budget := &buildgov.Budget{
		Timeout:        100 * time.Millisecond,
		MaxNodes:       500,
		MaxHeapBytes:   4 << 20,
		MaxMemoEntries: 500,
	}
	start := time.Now()
	m, err := update.NewManagerLadder(storm, update.DefaultLadder(budget),
		update.Config{})
	if err != nil {
		t.Fatalf("ladder failed to produce a generation: %v", err)
	}
	elapsed := time.Since(start)
	// Three governed rungs, each bounded by the 100ms budget plus
	// cooperative-cancellation slack, then the instant linear rung.
	if elapsed > 3*2*100*time.Millisecond {
		t.Fatalf("degradation walk took %v, want < 600ms", elapsed)
	}

	h := m.Health()
	if h.ActiveAlgorithm != "linear" || h.DegradationLevel != 3 {
		t.Fatalf("serving %q at level %d, want linear at 3 (health: %+v)", h.ActiveAlgorithm, h.DegradationLevel, h)
	}
	if h.BudgetTrips < 3 {
		t.Fatalf("BudgetTrips = %d, want >= 3 (every governed rung tripped)", h.BudgetTrips)
	}
	for i, b := range h.Breakers[:3] {
		if b.ConsecutiveFailures == 0 {
			t.Fatalf("breaker %d (%s) recorded no failure: %+v", i, b.Rung, h.Breakers)
		}
	}

	// The degraded generation must still be *correct*: every sampled
	// header classifies exactly like priority linear search.
	tr, err := pktgen.Generate(storm, pktgen.Config{Count: 2000, Seed: 99, MatchFraction: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, hd := range tr.Headers {
		if got, want := m.Classify(hd), storm.Match(hd); got != want {
			t.Fatalf("degraded ladder classifies %v as %d, oracle says %d", hd, got, want)
		}
	}
	waitNoLeaks(t, base)
}

// A builder that has stopped making progress cannot wedge the manager:
// the per-build BuildTimeout cancels it and the ladder falls through.
func TestStalledBuilderIsUnblockedByBuildTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	rs := faultinject.OverlapGrid("grid", 4)
	var stalled faultinject.StalledBuilder
	linearRung, err := update.LadderFromNames([]string{"linear"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ladder := append([]update.Rung{{Name: "stalled", Build: stalled.Build}}, linearRung...)

	start := time.Now()
	m, err := update.NewManagerLadder(rs, ladder, update.Config{
		BuildTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("stalled rung wedged the manager: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("manager took %v to route around the stall, want ~100ms", elapsed)
	}
	if calls := stalled.Calls(); calls != 1 {
		t.Fatalf("stalled builder called %d times, want 1", calls)
	}
	if h := m.Health(); h.ActiveAlgorithm != "linear" || h.DegradationLevel != 1 {
		t.Fatalf("serving %q/%d, want linear/1", h.ActiveAlgorithm, h.DegradationLevel)
	}
	waitNoLeaks(t, base)
}

// A builder that would allocate without bound trips the byte budget on
// its first attempt — no retry, one BudgetTrips increment — and the
// ladder serves the fallback.
func TestHungryBuilderTripsByteBudget(t *testing.T) {
	rs := faultinject.OverlapGrid("grid", 4)
	hungry := faultinject.HungryBuilder{
		Budget:     &buildgov.Budget{MaxHeapBytes: 8 << 20},
		ChunkBytes: 1 << 20,
	}
	linearRung, err := update.LadderFromNames([]string{"linear"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ladder := append([]update.Rung{{Name: "hungry", Build: hungry.Build}}, linearRung...)
	m, err := update.NewManagerLadder(rs, ladder, update.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if calls := hungry.Calls(); calls != 1 {
		t.Fatalf("hungry builder attempted %d times, want 1 (budget trips are not retried)", calls)
	}
	h := m.Health()
	if h.BudgetTrips != 1 || h.ActiveAlgorithm != "linear" {
		t.Fatalf("health = trips %d, algo %q; want 1 trip and linear", h.BudgetTrips, h.ActiveAlgorithm)
	}
}
