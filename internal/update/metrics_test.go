package update

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/expcuts"
	"repro/internal/linear"
	"repro/internal/obs"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

func eventKinds(ring *obs.Ring) map[string]uint64 {
	out := map[string]uint64{}
	for _, kc := range ring.KindCounts() {
		out[kc.Kind] = kc.Count
	}
	return out
}

// TestManagerEventsSwapRollbackRungChange: the manager must flight-record
// every generation swap, every rollback, and rung changes when a rebuild
// lands on a different ladder level than the generation it replaces.
func TestManagerEventsSwapRollbackRungChange(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(64)
	boom := errors.New("injected build failure")
	failFirst := false
	ladder := []Rung{
		{Name: "expcuts", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			if failFirst {
				return nil, boom
			}
			return expcuts.New(rs, expcuts.Config{})
		}},
		{Name: "linear", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			return linear.New(rs), nil
		}},
	}
	mgr, err := NewManagerLadder(rs, ladder, Config{ValidateSamples: -1, Events: ring})
	if err != nil {
		t.Fatal(err)
	}
	if got := eventKinds(ring)[obs.EventSwap]; got != 1 {
		t.Fatalf("initial build recorded %d swap events, want 1", got)
	}

	// Degrade: the preferred rung now fails, so the next Apply must land
	// on linear — one more swap plus a rung-change event.
	failFirst = true
	if err := mgr.Apply([]Op{InsertAt(rs.Len(), rs.Rules[0])}); err != nil {
		t.Fatal(err)
	}
	kinds := eventKinds(ring)
	if kinds[obs.EventSwap] != 2 {
		t.Errorf("swap events = %d, want 2", kinds[obs.EventSwap])
	}
	if kinds[obs.EventRungChange] != 1 {
		t.Errorf("rung-change events = %d, want 1", kinds[obs.EventRungChange])
	}

	if err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := eventKinds(ring)[obs.EventRollback]; got != 1 {
		t.Errorf("rollback events = %d, want 1", got)
	}
}

// TestManagerEventsBreakerTransitions: consecutive rung failures must
// record exactly one breaker-open event at the threshold crossing, a
// half-open probe after the cooldown, and a close on the probe's
// success.
func TestManagerEventsBreakerTransitions(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(64)
	boom := errors.New("injected build failure")
	failing := false
	ladder := []Rung{
		{Name: "flaky", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			if failing {
				return nil, boom
			}
			return linear.New(rs), nil
		}},
		{Name: "linear", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			return linear.New(rs), nil
		}},
	}
	mgr, err := NewManagerLadder(rs, ladder, Config{ValidateSamples: -1, Events: ring})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	installClock(mgr, clock)

	apply := func() error { return mgr.Apply([]Op{InsertAt(rs.Len(), rs.Rules[0])}) }
	failing = true
	// Failures 1 .. BreakerThreshold (the last opens), then a skipped rung.
	for i := 0; i <= BreakerThreshold; i++ {
		if err := apply(); err != nil {
			t.Fatalf("apply %d: %v (ladder should fall through to linear)", i, err)
		}
	}
	kinds := eventKinds(ring)
	if kinds[obs.EventBreakerOpen] != 1 {
		t.Errorf("breaker-open events = %d, want exactly 1", kinds[obs.EventBreakerOpen])
	}
	if h := mgr.Health(); h.FailedBuilds != BreakerThreshold {
		t.Errorf("FailedBuilds = %d, want %d: the open rung must be skipped, not rebuilt", h.FailedBuilds, BreakerThreshold)
	}

	// Past the cooldown the rung half-opens; a successful probe closes it.
	clock.advance(BreakerCooldown + time.Second)
	failing = false
	if err := apply(); err != nil {
		t.Fatal(err)
	}
	kinds = eventKinds(ring)
	if kinds[obs.EventBreakerHalfOpen] != 1 {
		t.Errorf("breaker-half-open events = %d, want 1", kinds[obs.EventBreakerHalfOpen])
	}
	if kinds[obs.EventBreakerClose] != 1 {
		t.Errorf("breaker-close events = %d, want 1", kinds[obs.EventBreakerClose])
	}
}

// TestGovernorRecordsBudgetTrip: a tripped budget must record exactly one
// budget-trip event no matter how many callers observe the sticky error.
func TestGovernorRecordsBudgetTrip(t *testing.T) {
	ring := obs.NewRing(8)
	g := buildgov.Start(context.Background(), &buildgov.Budget{MaxNodes: 1, Events: ring})
	if err := g.Nodes(2, 64); !errors.Is(err, buildgov.ErrBudgetExceeded) {
		t.Fatalf("Nodes = %v, want a budget trip", err)
	}
	for i := 0; i < 5; i++ {
		if err := g.Check(); !errors.Is(err, buildgov.ErrBudgetExceeded) {
			t.Fatalf("sticky error lost: %v", err)
		}
	}
	if got := eventKinds(ring)[obs.EventBudgetTrip]; got != 1 {
		t.Fatalf("budget-trip events = %d, want exactly 1", got)
	}
}

// TestManagerCollectExposesHealth: the pc_update_* series must reflect
// Health, including per-rung breaker series.
func TestManagerCollectExposesHealth(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ladder := []Rung{
		{Name: "expcuts", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			return expcuts.New(rs, expcuts.Config{})
		}},
		{Name: "linear", Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			return linear.New(rs), nil
		}},
	}
	mgr, err := NewManagerLadder(rs, ladder, Config{ValidateSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mgr.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pc_update_generation 1",
		"pc_update_degradation_level 0",
		`pc_update_breaker_open{rung="expcuts"} 0`,
		`pc_update_breaker_failures{rung="linear"} 0`,
		"pc_update_rollbacks_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
