package flowcache_test

import (
	"testing"

	"repro/internal/expcuts"
	"repro/internal/flowcache"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
)

// TestCacheFollowsManagerGenerations: a cache over an update.Manager
// answers every header as the manager does after each kind of
// generation change — a rebuild (Apply), a delta generation (ApplyDelta)
// and a Rollback — through both Classify and ClassifyBatch, though every
// header was cached under the previous generation. Each change moves
// most verdicts: a catch-all goes in at the top, comes out again, and
// comes back with the rollback.
func TestCacheFollowsManagerGenerations(t *testing.T) {
	rs, err := rulegen.Standard("FW01")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := update.NewManager(rs, func(rs *rules.RuleSet) (update.Classifier, error) {
		return expcuts.New(rs, expcuts.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 500, Seed: 1, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	hs := tr.Headers
	one, err := flowcache.New(mgr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := flowcache.New(mgr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(hs))
	check := func(step string) {
		t.Helper()
		batch.ClassifyBatch(hs, out)
		staleOne, staleBatch := 0, 0
		for i, h := range hs {
			want := mgr.Classify(h)
			if one.Classify(h) != want {
				staleOne++
			}
			if out[i] != want {
				staleBatch++
			}
		}
		if staleOne+staleBatch > 0 {
			t.Errorf("after %s: %d of %d Classify and %d ClassifyBatch answers differ from the manager's",
				step, staleOne, len(hs), staleBatch)
		}
	}
	check("NewManager")
	catchAll := rules.Rule{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
		Proto: rules.AnyProto, Action: rules.ActionDeny}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"Apply", func() error { return mgr.Apply([]update.Op{update.InsertAt(0, catchAll)}) }},
		{"ApplyDelta", func() error { return mgr.ApplyDelta([]update.Op{update.DeleteAt(0)}) }},
		{"Rollback", mgr.Rollback},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name)
	}
	// With the rule set left alone, the verdicts cached since the rollback
	// must serve.
	check("no change")
	for _, c := range []*flowcache.Cache{one, batch} {
		if hits, _, _ := c.Stats(); hits < uint64(len(hs))*9/10 {
			t.Errorf("%d hits, want at least %d from the unchanged generation", hits, len(hs)*9/10)
		}
		if _, gen := mgr.Live(); c.Generation() != gen {
			t.Errorf("cache pinned generation %d, manager's live one is %d", c.Generation(), gen)
		}
	}
}

// TestCacheFollowsManagerUnderSwaps: while another goroutine flips a
// catch-all in and out of the manager's top priority with delta
// generations, every ClassifyBatch call answers from one generation:
// all its verdicts are the catch-all's 0, or all are the verdicts of the
// rule set without it. Half of each batch repeats hot flows, so hits
// (cached under the pinned generation) and misses (answered by it) meet
// in one call; a cache that answered its misses from whatever generation
// is live by then would mix the two when a flip lands mid-call.
func TestCacheFollowsManagerUnderSwaps(t *testing.T) {
	rs, err := rulegen.Standard("FW01")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := update.NewManagerConfig(rs, func(rs *rules.RuleSet) (update.Classifier, error) {
		return expcuts.New(rs, expcuts.Config{})
	}, update.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 4096, Seed: 2, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cold := tr.Headers
	want := make([]int, len(cold))
	mgr.ClassifyBatch(cold, want)
	cache, err := flowcache.New(mgr, 256)
	if err != nil {
		t.Fatal(err)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		catchAll := rules.Rule{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
			Proto: rules.AnyProto, Action: rules.ActionDeny}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := update.DeleteAt(0)
			if i%2 == 0 {
				op = update.InsertAt(0, catchAll)
			}
			if err := mgr.ApplyDelta([]update.Op{op}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()

	const half = 32
	hs, idx := make([]rules.Header, 2*half), make([]int, 2*half)
	out := make([]int, 2*half)
	for n := 0; n < 5000; n++ {
		for i := range hs {
			j := i // the hot half: flows 0..31 every batch
			if i >= half {
				j = half + (n*half+i)%(len(cold)-half)
			}
			hs[i], idx[i] = cold[j], j
		}
		cache.ClassifyBatch(hs, out)
		allZero := true
		for _, m := range out {
			allZero = allZero && m == 0
		}
		if allZero {
			continue
		}
		for i, m := range out {
			if m != want[idx[i]] {
				t.Fatalf("batch %d mixes generations: packet %d answers %d, want 0 or %d (answers %v)",
					n, i, m, want[idx[i]], out)
			}
		}
	}
	if hits, _, _ := cache.Stats(); hits == 0 {
		t.Error("no lookup hit the cache")
	}
}
