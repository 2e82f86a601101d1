package conformance

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/pktgen"
	"repro/internal/rmi"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/tenant"
	"repro/internal/update"
)

// rmiSets are the rule-set families the learned-index rung must agree
// with the oracle on. The RQ-RMI index carries disjoint projections only;
// everything else drains to the remainder classifier, so the matrix
// deliberately spans both regimes: the synthetic families index most
// rules, while OverlapGrid (every rule overlaps every other in some
// dimension) and WildcardStorm (near-total wildcards) push nearly the
// whole set through the remainder chain.
var rmiSets = []struct {
	name string
	gen  func() (*rules.RuleSet, error)
}{
	{"firewall", func() (*rules.RuleSet, error) {
		return rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 150, Seed: 2501})
	}},
	{"core-router", func() (*rules.RuleSet, error) {
		return rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 240, Seed: 2502})
	}},
	{"acl", func() (*rules.RuleSet, error) {
		return rulegen.Generate(rulegen.Config{Kind: rulegen.ACL, Size: 400, Seed: 2503})
	}},
	{"overlap-grid", func() (*rules.RuleSet, error) {
		return faultinject.OverlapGrid("overlap-grid", 12), nil
	}},
	{"wildcard-storm", func() (*rules.RuleSet, error) {
		return faultinject.WildcardStorm("wildcard-storm", 160, 2504), nil
	}},
}

// TestRMIServingMatrix: the learned rung's engine output — across batch
// sizes and shard counts — must equal the linear-search oracle on every
// family, including the remainder-heavy pathological sets.
func TestRMIServingMatrix(t *testing.T) {
	for _, s := range rmiSets {
		s := s
		t.Run(s.name, func(t *testing.T) {
			rs, err := s.gen()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := pktgen.Generate(rs, pktgen.Config{Count: 2500, Seed: 2505, MatchFraction: 0.85})
			if err != nil {
				t.Fatal(err)
			}
			oracle := make([]int, len(tr.Headers))
			for i, h := range tr.Headers {
				oracle[i] = rs.Match(h)
			}
			cl, err := rmi.New(rs, rmi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{0, 1, 64} {
				for _, shards := range []int{1, 2, 5} {
					got := serveMatches(t, cl,
						engine.Config{Shards: shards, BatchSize: batch, PreserveOrder: true},
						tr.Headers, false)
					for i, m := range got {
						if m != oracle[i] {
							t.Fatalf("batch=%d shards=%d seq %d: match %d, oracle %d",
								batch, shards, i, m, oracle[i])
						}
					}
				}
			}
		})
	}
}

// TestRMIForcedRemainderServing pins the index to zero iSets (MinISetSize
// above the set size), so every packet takes the remainder-fallback path,
// and serves that configuration through the sharded engine: the fallback
// chain must be oracle-exact on its own, not just as a backstop for the
// models.
func TestRMIForcedRemainderServing(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 130, Seed: 2511})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 2000, Seed: 2512, MatchFraction: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rmi.New(rs, rmi.Config{MinISetSize: rs.Len() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.NumISets != 0 || st.RemainderRules != rs.Len() {
		t.Fatalf("forced remainder: NumISets=%d RemainderRules=%d, want 0/%d",
			st.NumISets, st.RemainderRules, rs.Len())
	}
	for _, shards := range []int{1, 4} {
		got := serveMatches(t, cl,
			engine.Config{Shards: shards, BatchSize: 32, PreserveOrder: true}, tr.Headers, false)
		for i, m := range got {
			if want := rs.Match(tr.Headers[i]); m != want {
				t.Fatalf("shards=%d seq %d: match %d, oracle %d", shards, i, m, want)
			}
		}
	}
}

// TestRMITenantServing serves two tenants whose ladders lead with the
// learned rung through the shared tenant engine: both must settle on
// rmi at level 0 and answer oracle-exactly for their own rule sets.
func TestRMITenantServing(t *testing.T) {
	aclRules, err := rulegen.Generate(rulegen.Config{Kind: rulegen.ACL, Size: 400, Seed: 2531})
	if err != nil {
		t.Fatal(err)
	}
	fwRules, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 140, Seed: 2532})
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Options{})
	cfg := tenant.Config{
		Ladder: []string{"rmi", "linear"},
		Update: update.Config{ValidateSamples: -1, CompactThreshold: -1},
	}
	const tidA, tidB = 1, 2
	sets := map[uint32]*rules.RuleSet{tidA: aclRules, tidB: fwRules}
	for tid, rs := range sets {
		rt, err := reg.Add(tenant.ID(tid), rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if algo, lvl := rt.DescribeAlgorithm(); !strings.HasPrefix(algo, "rmi") || lvl != 0 {
			t.Fatalf("tenant %d serves %q at level %d; want the rmi rung at level 0", tid, algo, lvl)
		}
	}
	var pkts []engine.TenantPacket
	for tid, rs := range sets {
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1500, Seed: 2533 + int64(tid), MatchFraction: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range tr.Headers {
			pkts = append(pkts, engine.TenantPacket{Tenant: tid, Header: h})
		}
	}
	served := 0
	_, err = engine.RunTenants(context.Background(), reg, engine.Config{Shards: 3, BatchSize: 32, PreserveOrder: true},
		pkts, func(r engine.TenantResult) {
			if r.Err != nil {
				t.Errorf("tenant %d: unexpected serve error: %v", r.Tenant, r.Err)
				return
			}
			served++
			if want := sets[r.Tenant].Match(r.Header); r.Match != want {
				t.Errorf("tenant %d: match %d, oracle %d", r.Tenant, r.Match, want)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if served != len(pkts) {
		t.Fatalf("served %d of %d packets", served, len(pkts))
	}
}
