package conformance

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
)

// TestChurnConformanceAcrossShards is the churn dimension of the matrix:
// randomized insert/delete bursts land through the delta layer between
// (and, for compactions, during) serving runs, and after every burst the
// sharded engine at 1, 3 and 8 shards must agree packet-for-packet with
// the linear oracle over the manager's current snapshot. Rounds also
// interleave compactions folding the delta mid-serve (answer-preserving
// by construction) and rollbacks reverting the latest burst.
func TestChurnConformanceAcrossShards(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 120, Seed: 2201})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1500, Seed: 2202, MatchFraction: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 30, Seed: 2203})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := update.NewManagerConfig(rs,
		func(r *rules.RuleSet) (update.Classifier, error) {
			return expcuts.New(r, expcuts.Config{})
		},
		update.Config{CompactThreshold: -1}) // compactions only where the test places them
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2204))
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		snap, _ := mgr.Snapshot()
		n := len(snap)
		var ops []update.Op
		for k := 0; k < 2+rng.Intn(3); k++ {
			if n > 60 && rng.Intn(2) == 0 {
				ops = append(ops, update.DeleteAt(rng.Intn(n)))
				n--
			} else {
				ops = append(ops, update.InsertAt(rng.Intn(n+1), pool.Rules[rng.Intn(pool.Len())]))
				n++
			}
		}
		if err := mgr.ApplyDelta(ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round%4 == 3 {
			if err := mgr.Rollback(); err != nil {
				t.Fatalf("round %d rollback: %v", round, err)
			}
		}

		// The oracle is the linear scan over whatever the manager now
		// serves — including rolled-back rounds.
		cur, gen := mgr.Snapshot()
		oracle := rules.NewRuleSet("oracle", cur)
		want := make([]int, len(tr.Headers))
		for i, h := range tr.Headers {
			want[i] = oracle.Match(h)
		}

		// On compaction rounds the fold runs concurrently with serving:
		// it swaps the tree under the engine mid-stream, but the combined
		// view is answer-preserving, so the oracle must still hold.
		var compacted chan struct{}
		if round%4 == 1 {
			compacted = make(chan struct{})
			go func() {
				defer close(compacted)
				if err := mgr.Compact(); err != nil && !errors.Is(err, update.ErrCompactionConflict) {
					t.Errorf("round %d compact: %v", round, err)
				}
			}()
		}
		for _, shards := range []int{1, 3, 8} {
			got := serveMatches(t, mgr,
				engine.Config{Shards: shards, FlowCacheFlows: 256, PreserveOrder: true},
				tr.Headers, false)
			for i, m := range got {
				if m != want[i] {
					t.Fatalf("round %d gen %d shards=%d seq %d: match %d, oracle %d",
						round, gen, shards, i, m, want[i])
				}
			}
		}
		if compacted != nil {
			<-compacted
		}
	}
	h := mgr.Health()
	if h.DeltaApplies == 0 {
		t.Error("churn rounds never exercised the delta layer")
	}
	if h.Rollbacks == 0 || h.Compactions == 0 {
		t.Errorf("rounds skipped a dimension: %d rollbacks, %d compactions", h.Rollbacks, h.Compactions)
	}
}

// TestChurnSoakWithFailuresAcrossShards serves continuously at several
// shard counts while a churn goroutine drives semantically neutral delta
// edits (a duplicate of rule 0 appended and removed — no answer ever
// changes), compactions, injected compaction failures that trip the
// single rung's circuit breaker, and rollbacks. Run with -race. Every
// emitted match must equal the base oracle no matter which generation,
// delta state or breaker state served it.
func TestChurnSoakWithFailuresAcrossShards(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 100, Seed: 2211})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 2000, Seed: 2212, MatchFraction: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]int, len(tr.Headers))
	for i, h := range tr.Headers {
		oracle[i] = rs.Match(h)
	}

	var failBuilds atomic.Bool
	ring := obs.NewRing(256)
	mgr, err := update.NewManagerConfig(rs,
		func(r *rules.RuleSet) (update.Classifier, error) {
			if failBuilds.Load() {
				return nil, errors.New("injected compaction build failure")
			}
			return expcuts.New(r, expcuts.Config{})
		},
		update.Config{
			ValidateSamples:  -1,
			CompactThreshold: -1,
			Events:           ring,
		})
	if err != nil {
		t.Fatal(err)
	}

	dup := rs.Rules[0]
	const minChurnIters = 12
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	milestone := make(chan struct{}) // closed once every dimension has fired
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap, _ := mgr.Snapshot()
			n := len(snap)
			if err := mgr.ApplyDelta([]update.Op{update.InsertAt(n, dup)}); err != nil {
				t.Errorf("churn %d insert: %v", i, err)
				return
			}
			switch {
			case i%3 == 1:
				// Three consecutive injected failures open the breaker;
				// serving must ride out the trip on (old tree + delta).
				failBuilds.Store(true)
				for k := 0; k < 3; k++ {
					if err := mgr.Compact(); err == nil {
						t.Errorf("churn %d: injected compaction %d unexpectedly succeeded", i, k)
					}
				}
				failBuilds.Store(false)
			case i%3 == 2:
				if err := mgr.Compact(); err != nil && !errors.Is(err, update.ErrCompactionConflict) &&
					!errors.Is(err, update.ErrCompactionAborted) {
					// Breaker may still be open from a recent trip; that
					// surfaces as a failed build, which is expected here.
					t.Logf("churn %d compact: %v", i, err)
				}
			}
			if err := mgr.ApplyDelta([]update.Op{update.DeleteAt(n)}); err != nil {
				t.Errorf("churn %d delete: %v", i, err)
				return
			}
			if i%4 == 3 {
				if err := mgr.Rollback(); err != nil {
					t.Errorf("churn %d rollback: %v", i, err)
					return
				}
			}
			if i == minChurnIters {
				close(milestone)
			}
		}
	}()

	for _, shards := range []int{1, 3, 8} {
		got := serveMatches(t, mgr,
			engine.Config{Shards: shards, FlowCacheFlows: 256, PreserveOrder: true},
			tr.Headers, false)
		for i, m := range got {
			if m != oracle[i] {
				t.Fatalf("shards=%d seq %d: match %d under churn, oracle %d", shards, i, m, oracle[i])
			}
		}
	}
	// Keep churning until every dimension (breaker trip, fold, rollback)
	// has fired at least once, then stop.
	select {
	case <-milestone:
	case <-time.After(30 * time.Second):
		t.Fatal("churn goroutine never reached its milestone")
	}
	close(stop)
	<-churnDone
	if !mgr.Quiesce(10 * time.Second) {
		t.Fatal("manager did not quiesce after churn")
	}

	h := mgr.Health()
	if h.DeltaApplies == 0 {
		t.Error("soak never used the delta layer")
	}
	if h.CompactionFailures == 0 {
		t.Error("injected compaction failures never fired")
	}
	if h.Rollbacks == 0 {
		t.Error("soak never rolled back")
	}
	opens := uint64(0)
	for _, kc := range ring.KindCounts() {
		if kc.Kind == obs.EventBreakerOpen {
			opens = kc.Count
		}
	}
	if opens == 0 {
		t.Error("breaker never tripped despite consecutive injected failures")
	}
	t.Logf("soak: %d delta applies, %d compactions, %d failures, %d aborts, %d rollbacks, %d breaker opens",
		h.DeltaApplies, h.Compactions, h.CompactionFailures, h.CompactionAborts, h.Rollbacks, opens)
}
