package conformance

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/tenant"
	"repro/internal/update"
)

// TestHostileTenantIsolation is the multi-tenant dimension of the
// conformance matrix: tenant X is actively hostile — a WildcardStorm
// rule table under a budget so tight every tree rung trips (driving X
// down its own ladder to linear), plus a FlappingUpdater hammering X's
// delta layer from another goroutine throughout serving — while tenants
// Y and Z serve steady tables beside it on the same shards.
//
// The isolation contract under test, at 1, 3 and 8 shards:
//
//   - Y and Z agree packet-for-packet with their own static linear
//     oracles while X churns;
//   - Y and Z stay on their preferred rung ("expcuts", level 0) — X's
//     budget trips are X's alone;
//   - X lands on "linear" with recorded budget trips, keeps serving, and
//     after the storm its snapshot equals the updater's mirror exactly;
//   - per-tenant per-shard accounting identities hold throughout.
func TestHostileTenantIsolation(t *testing.T) {
	ysRules, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 120, Seed: 7301})
	if err != nil {
		t.Fatal(err)
	}
	zsRules, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 100, Seed: 7302})
	if err != nil {
		t.Fatal(err)
	}
	storm := faultinject.WildcardStorm("hostile", 160, 7303)
	pool, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 30, Seed: 7304})
	if err != nil {
		t.Fatal(err)
	}

	ring := obs.NewRing(256)
	reg := tenant.NewRegistry(tenant.Options{Events: ring})
	const (
		tidX = 10 // hostile
		tidY = 20 // steady
		tidZ = 30 // steady
	)
	steady := tenant.Config{Update: update.Config{ValidateSamples: -1, CompactThreshold: -1}}
	if _, err := reg.Add(tidY, ysRules, steady); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(tidZ, zsRules, steady); err != nil {
		t.Fatal(err)
	}
	hostile, err := reg.Add(tidX, storm, tenant.Config{
		// A node budget the storm cannot fit: expcuts, hicuts and hsm all
		// trip, the final (ungoverned) linear rung serves.
		Budget:         &buildgov.Budget{MaxNodes: 48},
		Update:         update.Config{ValidateSamples: -1, CompactThreshold: -1},
		ShedOnOverload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if algo, lvl := hostile.DescribeAlgorithm(); algo != "linear" || lvl == 0 {
		t.Fatalf("hostile tenant serves %q at level %d; the storm budget should force linear", algo, lvl)
	}
	if h := hostile.Health(); h.BudgetTrips == 0 {
		t.Fatal("hostile tenant records no budget trips")
	}

	// Traffic: three per-tenant traces interleaved into one stream, with
	// a static linear oracle for the steady tenants.
	traces := map[uint32]*rules.RuleSet{tidY: ysRules, tidZ: zsRules, tidX: storm}
	count := 1200
	if testing.Short() {
		count = 400
	}
	var pkts []engine.TenantPacket
	want := map[uint32][]int{} // steady tenants: oracle match per their packet order
	perTenant := map[uint32][]rules.Header{}
	for tid, rs := range traces {
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: count, Seed: 7305 + int64(tid), MatchFraction: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		perTenant[tid] = tr.Headers
		if tid != tidX {
			ws := make([]int, len(tr.Headers))
			for i, h := range tr.Headers {
				ws[i] = rs.Match(h)
			}
			want[tid] = ws
		}
	}
	seen := map[uint32]int{} // per-tenant packet ordinal at emission
	for i := 0; i < count; i++ {
		for _, tid := range []uint32{tidX, tidY, tidZ} {
			pkts = append(pkts, engine.TenantPacket{Tenant: tid, Header: perTenant[tid][i]})
		}
	}

	// The flapping storm: delta churn on X from its own goroutine for the
	// whole serving phase, paced so two cores still make serving progress.
	flap := faultinject.NewFlappingUpdater(storm.Rules, pool.Rules, 7306)
	churnCtx, stopChurn := context.WithCancel(context.Background())
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for churnCtx.Err() == nil {
			if err := hostile.ApplyDelta(flap.NextBurst()); err != nil {
				t.Errorf("hostile churn: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	for _, shards := range []int{1, 3, 8} {
		for k := range seen {
			delete(seen, k)
		}
		ts, err := engine.RunTenants(context.Background(), reg,
			engine.Config{Shards: shards, FlowCacheFlows: 256, PreserveOrder: true},
			pkts,
			func(r engine.TenantResult) {
				if r.Err != nil {
					t.Fatalf("shards=%d tenant %d seq %d: %v", shards, r.Tenant, r.Seq, r.Err)
				}
				ord := seen[r.Tenant]
				seen[r.Tenant]++
				if ws, ok := want[r.Tenant]; ok && r.Match != ws[ord] {
					t.Fatalf("shards=%d: steady tenant %d packet %d got match %d, oracle %d — hostile neighbor leaked",
						shards, r.Tenant, ord, r.Match, ws[ord])
				}
			})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, tid := range []uint32{tidX, tidY, tidZ} {
			tc := ts.Tenants[tid]
			if tc == nil {
				t.Fatalf("shards=%d: tenant %d missing from stats", shards, tid)
			}
			if tc.Offered != tc.Classified+tc.Shed+tc.Canceled+tc.Panicked {
				t.Errorf("shards=%d tenant %d: identity broken: %+v", shards, tid, *tc)
			}
			if tc.Offered != uint64(count) || tc.Classified != uint64(count) {
				t.Errorf("shards=%d tenant %d: offered %d classified %d, want %d each",
					shards, tid, tc.Offered, tc.Classified, count)
			}
		}
		reg.Absorb(ts)

		// Isolation: the steady tenants never leave their preferred rung.
		for _, tid := range []tenant.ID{tidY, tidZ} {
			rt := reg.Get(tid)
			if algo, lvl := rt.DescribeAlgorithm(); algo != "expcuts" || lvl != 0 {
				t.Errorf("shards=%d: steady tenant %v degraded to %q level %d beside the hostile tenant",
					shards, tid, algo, lvl)
			}
		}
		if algo, _ := hostile.DescribeAlgorithm(); algo != "linear" {
			t.Errorf("shards=%d: hostile tenant on %q, want linear", shards, algo)
		}
	}

	stopChurn()
	churn.Wait()
	if !hostile.Quiesce(10 * time.Second) {
		t.Fatal("hostile tenant never quiesced after the churn stopped")
	}
	live, _ := hostile.Snapshot()
	if err := flap.CheckAccounting(live); err != nil {
		t.Fatalf("hostile tenant's table diverged from the updater's mirror: %v", err)
	}
	// And X, settled, must agree with the linear oracle over its final
	// snapshot — hostile, degraded, churned, but never wrong.
	final := rules.NewRuleSet("hostile-final", live)
	hdrs := perTenant[tidX]
	finalPkts := make([]engine.TenantPacket, len(hdrs))
	for i, h := range hdrs {
		finalPkts[i] = engine.TenantPacket{Tenant: tidX, Header: h}
	}
	_, err = engine.RunTenants(context.Background(), reg,
		engine.Config{Shards: 3, FlowCacheFlows: 256, PreserveOrder: true},
		finalPkts,
		func(r engine.TenantResult) {
			if r.Err != nil {
				t.Fatalf("settled hostile seq %d: %v", r.Seq, r.Err)
			}
			if wantM := final.Match(r.Header); r.Match != wantM {
				t.Fatalf("settled hostile seq %d: match %d, oracle %d", r.Seq, r.Match, wantM)
			}
		})
	if err != nil {
		t.Fatal(err)
	}

	// The lifetime counters the registry absorbed add up across tenants.
	for _, tid := range []tenant.ID{tidX, tidY, tidZ} {
		c := reg.Get(tid).Counts()
		if c.Offered == 0 || c.Classified != c.Offered-c.Shed-c.Canceled-c.Panicked {
			t.Errorf("tenant %v lifetime counters broken: %+v", tid, c)
		}
	}
}

// TestTenantFlappingAcrossRestarts: remove-and-re-add of a serving
// tenant between runs (registry flapping, as opposed to rule flapping)
// must behave like a fresh tenant: the re-added table serves its own
// answers, and in-between the unknown ID is refused as shed, never
// misrouted to a stale lane.
func TestTenantFlappingAcrossRestarts(t *testing.T) {
	rsA, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 80, Seed: 7401})
	if err != nil {
		t.Fatal(err)
	}
	rsB, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 60, Seed: 7402})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rsA, pktgen.Config{Count: 600, Seed: 7403, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Options{Events: obs.NewRing(64)})
	cfg := tenant.Config{Update: update.Config{ValidateSamples: -1}}
	if _, err := reg.Add(5, rsA, cfg); err != nil {
		t.Fatal(err)
	}
	pkts := make([]engine.TenantPacket, len(tr.Headers))
	for i, h := range tr.Headers {
		pkts[i] = engine.TenantPacket{Tenant: 5, Header: h}
	}
	ecfg := engine.Config{Shards: 3, FlowCacheFlows: 128, PreserveOrder: true}

	run := func(oracle *rules.RuleSet, wantRefused bool) {
		t.Helper()
		ts, err := engine.RunTenants(context.Background(), reg, ecfg, pkts,
			func(r engine.TenantResult) {
				if wantRefused {
					if r.Err == nil {
						t.Fatalf("seq %d served while tenant was removed", r.Seq)
					}
					return
				}
				if r.Err != nil {
					t.Fatalf("seq %d: %v", r.Seq, r.Err)
				}
				if wantM := oracle.Match(r.Header); r.Match != wantM {
					t.Fatalf("seq %d: match %d, oracle %d — stale lane after re-add", r.Seq, r.Match, wantM)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		tc := ts.Tenants[5]
		if wantRefused && tc.Shed != uint64(len(pkts)) {
			t.Fatalf("removed tenant: %+v, want all %d shed", *tc, len(pkts))
		}
	}

	run(rsA, false)
	if !reg.Remove(5) {
		t.Fatal("Remove failed")
	}
	run(nil, true)
	if _, err := reg.Add(5, rsB, cfg); err != nil {
		t.Fatal(err)
	}
	run(rsB, false)
}
