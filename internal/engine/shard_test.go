package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expcuts"
	"repro/internal/faultinject"
	"repro/internal/flowcache"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/update"
)

// TestShardedMatchesOracleInOrder: for several shard counts, the sharded
// engine must emit every packet exactly once, in arrival order, with the
// oracle's match — the same contract the unsharded path honors.
func TestShardedMatchesOracleInOrder(t *testing.T) {
	rs, tree, headers := fixtures(t, 5000)
	for _, shards := range []int{1, 2, 3, 8} {
		var prev uint64
		first := true
		seen := 0
		st, err := Run(tree, Config{Shards: shards, PreserveOrder: true}, headers, func(r Result) {
			if r.Err != nil {
				t.Fatalf("shards=%d seq %d: %v", shards, r.Seq, r.Err)
			}
			if !first && r.Seq != prev+1 {
				t.Fatalf("shards=%d: out of order, %d after %d", shards, r.Seq, prev)
			}
			first = false
			prev = r.Seq
			if want := rs.Match(r.Header); r.Match != want {
				t.Fatalf("shards=%d seq %d: match %d, oracle %d", shards, r.Seq, r.Match, want)
			}
			seen++
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if seen != len(headers) || st.Packets != len(headers) {
			t.Fatalf("shards=%d: emitted %d, Stats.Packets %d, want %d",
				shards, seen, st.Packets, len(headers))
		}
		if st.Shards != shards || len(st.ShardBusy) != shards {
			t.Fatalf("shards=%d: Stats reports %d shards, %d busy entries",
				shards, st.Shards, len(st.ShardBusy))
		}
	}
}

// TestFlowAffinityIsStable: the shard a header lands on is a pure
// function of its 5-tuple, so all packets of a flow hit one shard — the
// property that makes per-shard flow caches coherent without locks.
func TestFlowAffinityIsStable(t *testing.T) {
	_, _, headers := fixtures(t, 500)
	for _, shards := range []int{2, 7, 16} {
		for _, h := range headers {
			a, b := shardOf(0, h, shards), shardOf(0, h, shards)
			if a != b {
				t.Fatalf("shardOf not deterministic for %v", h)
			}
			if a < 0 || a >= shards {
				t.Fatalf("shardOf(0, %v, %d) = %d out of range", h, shards, a)
			}
		}
	}
}

// TestShardedAccountingSumsUnderShed: with tiny per-shard rings and a
// dawdling classifier, classified + shed must still equal packets
// offered, and every shed packet must be emitted with ErrShed.
func TestShardedAccountingSumsUnderShed(t *testing.T) {
	_, tree, headers := fixtures(t, 4096)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 30 * time.Microsecond}
	base := runtime.NumGoroutine()
	shedSeen, okSeen := 0, 0
	st, err := Run(slow, Config{Shards: 4, QueueDepth: 1, BatchSize: 16,
		PreserveOrder: true, Overload: OverloadShed},
		headers, func(r Result) {
			if errors.Is(r.Err, ErrShed) {
				shedSeen++
			} else if r.Err == nil {
				okSeen++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != shedSeen || st.Packets != okSeen {
		t.Errorf("stats (%d shed, %d ok) disagree with emissions (%d, %d)",
			st.Shed, st.Packets, shedSeen, okSeen)
	}
	if st.Packets+st.Shed != len(headers) {
		t.Errorf("accounting: %d classified + %d shed != %d offered",
			st.Packets, st.Shed, len(headers))
	}
	waitNoLeaks(t, base)
}

// TestShardedCancelAccounting: cancelling mid-run must not strand
// results in the cross-shard sequencer. Pending per-shard batches hold
// sequence numbers scattered through the emitted range; they must come
// back as canceled results so classified + shed + canceled covers every
// packet offered.
func TestShardedCancelAccounting(t *testing.T) {
	_, tree, headers := fixtures(t, 20000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 100 * time.Microsecond}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	st, err := RunContext(ctx, slow, Config{Shards: 4, PreserveOrder: true}, headers,
		func(r Result) {
			if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("seq %d: unexpected error %v", r.Seq, r.Err)
			}
		})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error should wrap the context cause: %v", err)
	}
	if got := st.Packets + st.Shed + st.Canceled; got != len(headers) {
		t.Fatalf("accounting: %d classified + %d shed + %d canceled = %d, want %d",
			st.Packets, st.Shed, st.Canceled, got, len(headers))
	}
	if st.Canceled == 0 {
		t.Error("a 15ms deadline against 2s of classification work should cancel packets")
	}
	waitNoLeaks(t, base)
}

// TestShardedPanicAttribution: injected per-shard panics are contained
// to their packets; everything else classifies to the oracle and the
// failure count is exact across shards.
func TestShardedPanicAttribution(t *testing.T) {
	rs, tree, headers := fixtures(t, 3000)
	cl := &faultinject.PanickyClassifier{Inner: tree, EveryN: 97}
	base := runtime.NumGoroutine()
	failed, ok := 0, 0
	st, err := RunContext(context.Background(), cl, Config{Shards: 4, PreserveOrder: true},
		headers, func(r Result) {
			if r.Err != nil {
				if r.Match != -1 {
					t.Fatalf("seq %d: failed packet carries match %d", r.Seq, r.Match)
				}
				failed++
				return
			}
			if want := rs.Match(r.Header); r.Match != want {
				t.Fatalf("seq %d: match %d, oracle %d", r.Seq, r.Match, want)
			}
			ok++
		})
	if err == nil {
		t.Fatal("contained panics must surface as a run error")
	}
	if st.Panics == 0 || st.Panics != failed {
		t.Errorf("Stats.Panics = %d but %d failed results emitted", st.Panics, failed)
	}
	if ok+failed != len(headers) || st.Packets != ok {
		t.Errorf("accounting: %d ok + %d failed != %d offered (Stats.Packets %d)",
			ok, failed, len(headers), st.Packets)
	}
	waitNoLeaks(t, base)
}

// TestShardedFlowCacheMatchesOracle: the per-shard flow cache is a
// transparent layer — heavy flow reuse (the cache-friendly case) and a
// cold all-distinct trace must both classify to the oracle.
func TestShardedFlowCacheMatchesOracle(t *testing.T) {
	rs, tree, headers := fixtures(t, 2000)
	// Heavy reuse: repeat the trace three times so later rounds hit.
	trace := append(append(append([]rules.Header(nil), headers...), headers...), headers...)
	for _, shards := range []int{1, 4} {
		st, err := Run(tree, Config{Shards: shards, FlowCacheFlows: 512, PreserveOrder: true},
			trace, func(r Result) {
				if r.Err != nil {
					t.Fatalf("seq %d: %v", r.Seq, r.Err)
				}
				if want := rs.Match(r.Header); r.Match != want {
					t.Fatalf("shards=%d seq %d: cached match %d, oracle %d",
						shards, r.Seq, r.Match, want)
				}
			})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if st.Packets != len(trace) {
			t.Fatalf("shards=%d: %d classified, want %d", shards, st.Packets, len(trace))
		}
	}
}

// TestShardCachesFillEverySet: shardOf keeps the top bits of flowHash, so
// every header one shard's cache sees agrees on them. A cache that drew
// its set index from the same bits would use 1/Shards of its sets; fed
// 16x its capacity in distinct flows, each shard's cache must instead end
// all but full.
func TestShardCachesFillEverySet(t *testing.T) {
	const capacity = 512
	orig := newFlowCache
	defer func() { newFlowCache = orig }()
	var caches []*flowcache.Cache
	newFlowCache = func(cl Classifier, flows int) (*flowcache.Cache, error) {
		c, err := flowcache.New(cl, flows)
		caches = append(caches, c)
		return c, err
	}
	headers := make([]rules.Header, 16*capacity)
	for i := range headers {
		headers[i] = rules.Header{SrcIP: 0x0A000000 + uint32(i), DstIP: 0xC0A80001, SrcPort: uint16(i >> 3), DstPort: 443, Proto: rules.ProtoTCP}
	}
	for _, shards := range []int{2, 3, 4, 8} {
		caches = caches[:0]
		_, err := Run(faultinject.FixedClassifier{Match: 1}, Config{Shards: shards, FlowCacheFlows: capacity}, headers, func(Result) {})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(caches) != shards {
			t.Fatalf("shards=%d: %d caches built", shards, len(caches))
		}
		for i, c := range caches {
			if c.Len() < capacity*9/10 {
				t.Errorf("shards=%d: shard %d's cache holds %d of %d flows after %d distinct ones",
					shards, i, c.Len(), capacity, len(headers)/shards)
			}
		}
	}
}

// TestShardedFlowCacheSurvivesHotSwaps: serve a long trace through
// sharded flow caches while another goroutine applies rule-set updates.
// The applied ops are semantically neutral (append/remove a duplicate of
// an existing rule at lowest priority), so every packet's correct answer
// is invariant across generations — any stale cache entry surviving a
// swap, or a batch straddling generations, shows up as an oracle
// mismatch or a race-detector hit.
func TestShardedFlowCacheSurvivesHotSwaps(t *testing.T) {
	rs, _, headers := fixtures(t, 4000)
	mgr, err := update.NewManagerConfig(rs,
		func(rs *rules.RuleSet) (update.Classifier, error) {
			return expcuts.New(rs, expcuts.Config{})
		},
		update.Config{ValidateSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	trace := append(append([]rules.Header(nil), headers...), headers...)

	stop := make(chan struct{})
	swapsDone := make(chan int)
	go func() {
		swaps := 0
		dup := rs.Rules[0]
		for {
			select {
			case <-stop:
				swapsDone <- swaps
				return
			default:
			}
			if err := mgr.Apply([]update.Op{update.InsertAt(rs.Len(), dup)}); err != nil {
				t.Errorf("apply insert: %v", err)
			}
			if err := mgr.Apply([]update.Op{update.DeleteAt(rs.Len())}); err != nil {
				t.Errorf("apply delete: %v", err)
			}
			swaps += 2
		}
	}()

	st, err := Run(mgr, Config{Shards: 4, FlowCacheFlows: 256, PreserveOrder: true},
		trace, func(r Result) {
			if r.Err != nil {
				t.Fatalf("seq %d: %v", r.Seq, r.Err)
			}
			if want := rs.Match(r.Header); r.Match != want {
				t.Fatalf("seq %d: match %d under swaps, oracle %d", r.Seq, r.Match, want)
			}
		})
	close(stop)
	swaps := <-swapsDone
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(trace) {
		t.Fatalf("%d classified, want %d", st.Packets, len(trace))
	}
	t.Logf("served %d packets across %d generations", st.Packets, swaps)
}

// genClassifier answers every lookup with its current generation number
// and implements the generationProvider contract: monotonic bumps,
// batch answers from a single load.
type genClassifier struct{ gen atomic.Uint64 }

func (g *genClassifier) Generation() uint64        { return g.gen.Load() }
func (g *genClassifier) Classify(rules.Header) int { return int(g.gen.Load()) }
func (g *genClassifier) MemoryBytes() int          { return 8 }
func (g *genClassifier) ClassifyBatch(hs []rules.Header, out []int) {
	v := int(g.gen.Load())
	for i := range hs {
		out[i] = v
	}
}

// TestShardedBatchNeverStraddlesGeneration: with a classifier that
// stamps every answer with its generation and a writer bumping the
// generation continuously, every emitted batch must be internally
// uniform — the engine's read-classify-reread protocol redoes any batch
// a swap lands in, so a mixed batch can never escape. With one shard and
// PreserveOrder, batches are exactly the BatchSize-aligned chunks of the
// sequence space, making straddling externally observable.
func TestShardedBatchNeverStraddlesGeneration(t *testing.T) {
	_, _, headers := fixtures(t, 8192)
	cl := &genClassifier{}
	const batch = 64
	got := make([]int, len(headers))
	// The emit callback runs concurrently with the shard classifying the
	// *next* batch, so bumping here lands swaps at arbitrary points inside
	// in-flight batches — including mid-batch, which the redo loop must
	// absorb.
	// QueueDepth 1 keeps the shard at most a couple of batches ahead of
	// emission, so the bumps below land while batches are in flight.
	_, err := Run(cl, Config{Shards: 1, FlowCacheFlows: 256, BatchSize: batch, QueueDepth: 1, PreserveOrder: true},
		headers, func(r Result) {
			if r.Err != nil {
				t.Fatalf("seq %d: %v", r.Seq, r.Err)
			}
			got[r.Seq] = r.Match
			if r.Seq%17 == 0 {
				cl.gen.Add(1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for i := 0; i < len(got); i += batch {
		end := i + batch
		if end > len(got) {
			end = len(got)
		}
		for k := i + 1; k < end; k++ {
			if got[k] != got[i] {
				t.Fatalf("batch [%d,%d) straddles generations: seq %d has %d, seq %d has %d",
					i, end, i, got[i], k, got[k])
			}
		}
		if i > 0 && got[i] != got[i-batch] {
			changes++
		}
	}
	if changes == 0 {
		t.Skip("no generation change landed between batches; straddle check vacuous")
	}
}

// TestShardedHotPathDoesNotAllocate gates the two per-shard fast paths
// at zero allocations per batch: the all-hit flow-cache pass, and the
// batched ExpCuts walk over the flat node arena (cache misses resolved
// through ClassifyBatch). Pools make the steady state allocation-free;
// a regression here silently caps multi-core scaling with GC work.
func TestShardedHotPathDoesNotAllocate(t *testing.T) {
	_, tree, headers := fixtures(t, 64)
	j := (&batchPool{size: 64}).get()
	for i, h := range headers {
		j.seqs, j.hs = append(j.seqs, uint64(i)), append(j.hs, h)
	}

	// Batched arena walk, no cache.
	s := &shard{lane: lane{cl: tree, bc: tree}}
	if n := testing.AllocsPerRun(100, func() {
		s.lane.classify(j, nil, nil)
	}); n != 0 {
		t.Errorf("sharded arena batch walk allocates %v/op, want 0", n)
	}

	// Flow-cache path, warmed: hits and (way-overwriting) misses both ride
	// retained scratch.
	_, tree2, _ := fixtures(t, 64)
	fc, err := flowcache.New(tree2, 128)
	if err != nil {
		t.Fatal(err)
	}
	sc := &shard{lane: lane{cl: tree2, bc: tree2, cache: fc}}
	sc.lane.classify(j, nil, nil) // warm the cache
	if n := testing.AllocsPerRun(100, func() {
		sc.lane.classify(j, nil, nil)
	}); n != 0 {
		t.Errorf("sharded flow-cache hit path allocates %v/op, want 0", n)
	}

	// Same two paths with the full per-batch instrumentation sequence the
	// serve loop runs when Config.Metrics is set: classify, recordBatch,
	// panic and cache-delta recording. Metrics on must not buy back the
	// allocations the pools eliminated.
	m := NewMetrics(4)
	s.m, sc.m = m.shard(0), m.shard(1)
	sc.events = obs.NewRing(16)
	if n := testing.AllocsPerRun(100, func() {
		p := s.lane.classify(j, nil, nil)
		s.m.recordBatch(len(j.hs), time.Microsecond, 1)
		s.m.addPanics(uint64(p))
	}); n != 0 {
		t.Errorf("instrumented arena batch walk allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		p := sc.lane.classify(j, nil, nil)
		sc.m.recordBatch(len(j.hs), time.Microsecond, 1)
		sc.m.addPanics(uint64(p))
		hits, misses := sc.cache.Stats()
		sc.m.recordCache(hits, misses, &sc.lastHits, &sc.lastMisses)
	}); n != 0 {
		t.Errorf("instrumented flow-cache hit path allocates %v/op, want 0", n)
	}
}
