package tenant

import (
	"strings"
	"testing"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/update"
)

func denyHost(addr uint32) rules.Rule {
	return rules.Rule{
		SrcIP:   rules.Prefix{Addr: addr, Len: 32},
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
		Proto: rules.AnyProto, Action: rules.ActionDeny,
	}
}

func testRules(n int) *rules.RuleSet {
	rs := make([]rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, denyHost(0x0A000000+uint32(i)))
	}
	return rules.NewRuleSet("tenant-test", rs)
}

func addTenant(t *testing.T, r *Registry, id ID, cfg Config) *Runtime {
	t.Helper()
	rt, err := r.Add(id, testRules(32), cfg)
	if err != nil {
		t.Fatalf("Add(%v): %v", id, err)
	}
	return rt
}

func TestRegistryAddRemove(t *testing.T) {
	ring := obs.NewRing(32)
	r := NewRegistry(Options{Events: ring})
	cfg := Config{Update: update.Config{ValidateSamples: -1}}
	a := addTenant(t, r, 1, cfg)
	addTenant(t, r, 2, cfg)

	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if ids := r.IDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("IDs = %v", ids)
	}
	if r.Get(1) != a {
		t.Fatal("Get(1) did not return the added runtime")
	}
	if _, err := r.Add(1, testRules(4), cfg); err == nil {
		t.Fatal("duplicate Add accepted")
	}

	// Each tenant classifies against its own table.
	h := rules.Header{SrcIP: 0x0A000005, DstIP: 1, SrcPort: 2, DstPort: 3, Proto: 6}
	if got := a.Classify(h); got != 5 {
		t.Fatalf("tenant 1 Classify = %d, want 5", got)
	}

	if !r.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if r.Remove(2) {
		t.Fatal("Remove(2) twice = true")
	}
	if r.Get(2) != nil || r.Len() != 1 {
		t.Fatalf("tenant 2 still resolvable after Remove (Len=%d)", r.Len())
	}
	evicted := false
	for _, ev := range ring.Snapshot() {
		if ev.Kind == obs.EventTenantEvicted {
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("Remove recorded no tenant-evicted event")
	}
}

// TestRegistryLane: the packet-path lookup contract — resolves added
// tenants, returns untyped nil for unknown ones (the engine compares
// against nil directly), and allocates nothing.
func TestRegistryLane(t *testing.T) {
	r := NewRegistry(Options{})
	rt := addTenant(t, r, 7, Config{ShedOnOverload: true, Update: update.Config{ValidateSamples: -1}})

	if l := r.Lane(7); l == nil {
		t.Fatal("Lane(7) = nil")
	} else if !l.ShedOnOverload() {
		t.Fatal("lane lost ShedOnOverload")
	}
	if l := r.Lane(8); l != nil {
		t.Fatalf("Lane(8) = %v, want untyped nil", l)
	}
	_ = rt

	if n := testing.AllocsPerRun(100, func() {
		if r.Lane(7) == nil {
			t.Fatal("lane vanished")
		}
	}); n != 0 {
		t.Fatalf("Lane allocates %v per call; packet path must be 0", n)
	}
}

// TestRegistryIsolatedDegradation: a hostile tenant's budget trips its
// own ladder to a fallback rung without moving a neighbor off its
// preferred builder — the core isolation claim, at registry level.
func TestRegistryIsolatedDegradation(t *testing.T) {
	r := NewRegistry(Options{Events: obs.NewRing(64)})
	// Victim: generous (nil) budget.
	victim := addTenant(t, r, 1, Config{Update: update.Config{ValidateSamples: -1}})
	// Hostile: a node budget so tight the tree rungs cannot finish.
	hostile := addTenant(t, r, 2, Config{
		Budget: &buildgov.Budget{MaxNodes: 1},
		Update: update.Config{ValidateSamples: -1},
	})

	halgo, hlvl := hostile.DescribeAlgorithm()
	if hlvl == 0 {
		t.Fatalf("hostile tenant stayed on its preferred rung (%s); budget never tripped", halgo)
	}
	if h := hostile.Health(); h.BudgetTrips == 0 {
		t.Fatalf("hostile tenant health records no budget trips: %+v", h)
	}
	valgo, vlvl := victim.DescribeAlgorithm()
	if vlvl != 0 {
		t.Fatalf("victim degraded to %s (level %d) because of a neighbor's budget", valgo, vlvl)
	}
}

func TestRegistryAbsorb(t *testing.T) {
	r := NewRegistry(Options{})
	rt := addTenant(t, r, 3, Config{Update: update.Config{ValidateSamples: -1}})

	ts := engine.TenantStats{Tenants: map[uint32]*engine.TenantCounts{
		3: {Offered: 10, Classified: 7, Shed: 2, Canceled: 1},
		9: {Offered: 5}, // unknown tenant
	}}
	r.Absorb(ts)
	r.Absorb(ts)

	got := rt.Counts()
	want := engine.TenantCounts{Offered: 20, Classified: 14, Shed: 4, Canceled: 2}
	if got != want {
		t.Fatalf("Counts = %+v, want %+v", got, want)
	}
	if r.refused.Load() != 10 {
		t.Fatalf("refused = %d, want 10", r.refused.Load())
	}
}

func TestRegistryCollect(t *testing.T) {
	r := NewRegistry(Options{})
	addTenant(t, r, 4, Config{Update: update.Config{ValidateSamples: -1}})

	byName := map[string]int{}
	sawTenantLabel := false
	r.Collect(func(s obs.Sample) {
		byName[s.Name]++
		for _, l := range s.Labels {
			if l.Key == "tenant" && l.Value == "4" {
				sawTenantLabel = true
			}
		}
		if s.Type != "counter" && s.Type != "gauge" {
			t.Errorf("sample %s has type %q", s.Name, s.Type)
		}
		if !strings.HasPrefix(s.Name, "pc_tenant_") {
			t.Errorf("sample %s outside the pc_tenant_ namespace", s.Name)
		}
	})
	for _, name := range []string{
		"pc_tenant_count", "pc_tenant_builds_inflight", "pc_tenant_packets_total",
		"pc_tenant_degradation_level", "pc_tenant_build_trips_total",
	} {
		if byName[name] == 0 {
			t.Errorf("collector emitted no %s", name)
		}
	}
	if !sawTenantLabel {
		t.Error("no sample carried the tenant label")
	}
}
