// Sharded serving: the engine's multi-core fast path. The paper's IXP2850
// mapping gives every microengine its own thread group, local flow state
// and a hardware hash unit that sprays packets across engines by 5-tuple;
// this file is the commodity-core translation. A dispatcher hashes each
// packet's flow onto one of cfg.Shards lanes, so all packets of a flow are
// classified by the same goroutine against that shard's private flow cache
// — the hot path shares no mutable state across shards. A stage hands its
// successor a pointer to the batch, never the packets: the batch the
// dispatcher filled is the batch the shard classifies in place and the
// batch the sequencer (sequencer.go) emits from, in arrival order, before
// returning it to the run's one pool. RunContext serves a slice through
// this core and RunStream a Source; both get ordered emission, gap-free
// shed/cancel markers and per-packet panic attribution from the same code.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flowcache"
	"repro/internal/obs"
	"repro/internal/rules"
)

// newFlowCache is flowcache.New behind a package variable so tests can
// inject construction failures at a chosen shard (the goroutine-leak
// regression in lifecycle_test.go).
var newFlowCache = func(cl Classifier, flows int) (*flowcache.Cache, error) {
	return flowcache.New(cl, flows)
}

// generationProvider is implemented by classifiers that version their
// rule set (update.Manager). Shards poll it to invalidate their private
// flow caches when a hot-swap lands, and to guarantee no batch mixes two
// generations.
type generationProvider interface {
	Generation() uint64
}

// flowHash mixes the 5-tuple into 32 bits (splitmix64-style finalizer).
// Packets of one flow always hash identically, which is what pins a flow
// to a shard — the software stand-in for the NP's hardware hash unit.
func flowHash(h rules.Header) uint32 {
	x := uint64(h.SrcIP)<<32 | uint64(h.DstIP)
	x ^= (uint64(h.SrcPort)<<24 | uint64(h.DstPort)<<8 | uint64(h.Proto)) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return uint32(x)
}

// shardOf maps a header to a shard index with a multiply-shift reduction
// (no modulo on the per-packet path).
func shardOf(h rules.Header, shards int) int {
	return int(uint64(flowHash(h)) * uint64(shards) >> 32)
}

// lane is the classification state of one serving context: the
// classifier (batched when it supports it), an optional private flow
// cache, and the generation-bracketing state that keeps a batch from
// straddling a hot-swap. The single-table path owns one lane per shard;
// the multi-tenant path keeps one lane per (shard, tenant) so every
// tenant gets its own cache epoch and its own generation bracket.
type lane struct {
	cl    Classifier
	bc    BatchClassifier
	cache *flowcache.Cache
	gen   generationProvider // non-nil only when cache != nil and cl versions itself

	lastGen uint64
}

// shard is one serving lane: a private job ring and an optional private
// flow cache. The dispatcher touches only the ring; everything else belongs
// to the shard's serve goroutine.
type shard struct {
	lane

	jobs chan *batch

	// busy is cumulative classification time in nanoseconds; each serve
	// goroutine adds its total as it exits.
	busy atomic.Int64

	// m is the shard's instrument block and events the flight recorder
	// (both nil when Config.Metrics is unset). lastHits / lastMisses hold
	// the flow cache's previous counter readings so hits and misses are
	// exported as per-batch deltas without adding atomics to the cache.
	m                    *shardMetrics
	events               *obs.Ring
	lastHits, lastMisses uint64
}

// serve is the shard's loop: drain the job ring, classify each batch in
// place with panic containment, pass the same batch on. It fails canceled
// batches fast (the ring drains at cancellation speed, which is what
// bounds dispatcher blocking under OverloadBlock) and never exits before
// its ring closes, so delivery can never deadlock. RunContext runs
// Config.Workers of these on a cache-less single lane; every other lane
// runs exactly one.
func (s *shard) serve(ctx context.Context, results chan<- *batch) {
	var total time.Duration
	for b := range s.jobs {
		queued := len(s.jobs)
		if err := ctx.Err(); err != nil {
			fail(b, err, s.m)
		} else {
			start := time.Now()
			p := s.lane.classify(b, s.m, s.events)
			busy := time.Since(start)
			total += busy
			if s.m != nil {
				s.m.recordBatch(len(b.hs), busy, queued)
				s.m.addPanics(uint64(p))
				if s.cache != nil {
					hits, misses := s.cache.Stats()
					s.m.recordCache(hits, misses, &s.lastHits, &s.lastMisses)
				}
			}
		}
		results <- b
	}
	s.busy.Add(int64(total))
}

// fail marks a whole batch failed without classifying it — ErrShed under
// overload or for an unknown tenant, the context's error otherwise. The
// caller still delivers it, which is what keeps the sequence space
// gap-free for the sequencer.
func fail(b *batch, err error, m *shardMetrics) {
	b.err = err
	if errors.Is(err, ErrShed) {
		m.addShed(uint64(len(b.hs)))
	} else {
		m.addCanceled(uint64(len(b.hs)))
	}
}

// dispatch hands a filled batch to its lane. A shedding dispatcher never
// waits: a batch that finds the ring full overtakes the queued ones to the
// sequencer as ErrShed markers.
func dispatch(b *batch, jobs, results chan<- *batch, shed bool, m *shardMetrics) {
	if shed {
		select {
		case jobs <- b:
		default:
			fail(b, ErrShed, m)
			results <- b
		}
		return
	}
	jobs <- b
}

// maxGenRetries bounds how many times classify re-runs a batch whose
// generation moved underneath it before bypassing the cache. Two retries
// absorb any isolated swap; only sustained churn (a delta apply every few
// microseconds) exhausts them.
const maxGenRetries = 3

// classify writes b.matches. Without a cache it is classifyBatch. With a
// cache, batches are classified under a generation-stability protocol:
// read the generation, stale the cache if it moved since the last batch,
// classify, and re-read. If the generation changed underneath the batch,
// the batch is re-run — so on exit every result of the batch (cache hits
// and misses alike) is attributable to the single observed generation, and
// no batch on any shard ever straddles a hot-swap. Generations are
// monotonic, so equal reads bracket the whole batch.
//
// Each generation change is absorbed with an O(1) epoch bump, not an
// O(capacity) clear: delta-layer churn publishes a generation per edit
// batch, and a per-edit full clear would dominate the serving loop. The
// redo loop is bounded: under sustained churn the generation can move on
// every re-read, and an unbounded loop would livelock the shard, so after
// maxGenRetries the batch bypasses the cache entirely and classifies
// against the raw classifier — update.Manager's ClassifyBatch is
// internally coherent (one generation load per batch), so correctness
// holds and only this batch's cache benefit is lost.
func (l *lane) classify(b *batch, m *shardMetrics, events *obs.Ring) int64 {
	if l.cache == nil {
		return classifyBatch(l.cl, l.bc, b)
	}
	for attempt := 0; l.gen == nil || attempt < maxGenRetries; attempt++ {
		var gen uint64
		if l.gen != nil {
			gen = l.gen.Generation()
			if gen != l.lastGen {
				l.cache.AdvanceEpoch()
				l.lastGen = gen
				// Rare by design (once per hot-swap per shard), so the
				// formatted event record stays off the steady-state path.
				events.Recordf(obs.EventCacheInvalidate,
					"shard flow cache epoch advanced at generation %d", gen)
			}
		}
		n := classifyBatch(l.cache, l.cache, b)
		if l.gen == nil || l.gen.Generation() == gen {
			return n
		}
		// A swap landed mid-batch: results may mix generations. Loop and
		// redo the batch against the settled generation.
	}
	// Churn outpaced the retry budget: serve this batch cache-free. The
	// next batch re-enters the protocol (and stales the cache then).
	m.addCacheBypass()
	return classifyBatch(l.cl, l.bc, b)
}

// makeShards constructs and validates every shard for one run before any
// goroutine launches. Construction must not be folded into the launch
// loop: if shard i's flow cache fails to construct after shards 0..i-1
// started serving, those goroutines would block forever on their
// never-closed job rings — nothing in the early-return path would ever
// close them.
func makeShards(cl Classifier, cfg *Config) ([]*shard, error) {
	bc := cfg.batcher(cl)
	// With pipelining on, the flow cache's slow path is the pipelined
	// adapter, so cache-miss sub-batches take the staged walk too. The
	// raw classifier keeps serving the per-packet and generation roles.
	cacheSlow := cl
	if bc != nil {
		cacheSlow = bc
	}
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		s := &shard{lane: lane{cl: cl, bc: bc}, jobs: make(chan *batch, cfg.QueueDepth)}
		if cfg.FlowCacheFlows > 0 {
			c, err := newFlowCache(cacheSlow, cfg.FlowCacheFlows)
			if err != nil {
				return nil, fmt.Errorf("engine: shard %d flow cache: %w", i, err)
			}
			s.cache = c
			s.gen, _ = cl.(generationProvider)
			if s.gen != nil {
				s.lastGen = s.gen.Generation()
			}
		}
		if cfg.Metrics != nil {
			s.m = cfg.Metrics.shard(i)
			s.events = cfg.Metrics.events
		}
		shards[i] = s
	}
	return shards, nil
}

// runShards is the serve loop behind RunContext and RunStream. next
// surrenders the input a run of headers at a time (valid until the next
// call; more=false ends the input); a run shorter than a batch is a batch
// boundary and flushes every half-built batch (see Source). Each lane gets
// workers serving goroutines — more than one only when nothing is private
// to the lane. It returns once every pulled packet has been emitted, with
// how many were pulled and the emit stage's error, if any.
func runShards(ctx context.Context, cl Classifier, cfg *Config, shards []*shard, workers int,
	next func() (hs []rules.Header, more bool), emit func(Result)) (Stats, int, error) {
	nShards := len(shards)
	// Sized like a job ring: a lane that finishes a batch should find room
	// for it rather than wait on the sequencer.
	results := make(chan *batch, cfg.QueueDepth)
	pool := newBatchPool(cfg.BatchSize)
	var wg sync.WaitGroup
	for _, s := range shards {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.serve(ctx, results)
			}()
		}
	}

	// pulled is written by the dispatcher before it closes the job rings
	// and read after results closes; the closes order the two.
	var pulled uint64
	go func() {
		// Dispatcher: bin each pull into per-shard pending batches by flow
		// hash, send a batch when it fills, and flush the half-built ones
		// when a pull comes up short. Cancellation is polled once per pull;
		// the pending batches it cuts off are delivered as canceled results
		// — never silently dropped — because their sequence numbers sit
		// between already-dispatched ones. Only what was never pulled is
		// left out.
		defer func() {
			for _, s := range shards {
				close(s.jobs)
			}
		}()
		shed, size := cfg.Overload == OverloadShed, cfg.BatchSize
		pending := make([]*batch, nShards)
		var seq uint64
		defer func() { pulled = seq }()
		for {
			var hs []rules.Header
			more := false
			err := ctx.Err()
			if err == nil {
				hs, more = next()
			}
			for _, h := range hs {
				si := 0
				if nShards > 1 {
					si = shardOf(h, nShards)
				}
				b := pending[si]
				if b == nil {
					b = pool.get()
					pending[si] = b
				}
				b.seqs = append(b.seqs, seq)
				b.hs = append(b.hs, h)
				seq++
				if len(b.hs) == size {
					pending[si] = nil
					dispatch(b, shards[si].jobs, results, shed, shards[si].m)
				}
			}
			if more && len(hs) == size {
				continue
			}
			// A short pull, the end of the input, or cancellation: nothing
			// stays half-built.
			for si, b := range pending {
				if b == nil {
					continue
				}
				pending[si] = nil
				if err != nil {
					fail(b, err, shards[si].m)
					results <- b
				} else {
					dispatch(b, shards[si].jobs, results, shed, shards[si].m)
				}
			}
			if !more {
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	st := Stats{Shards: nShards}
	d, describes := cl.(Describer)
	if describes {
		st.Algorithm, st.DegradationLevel = d.DescribeAlgorithm()
	}
	seq := newSequencer(cfg, &st, pool, emit)
	// Draining results unconditionally until close is what guarantees the
	// lanes can always deliver and never leak.
	for b := range results {
		seq.accept(b)
	}
	if describes {
		// Re-sampled after the last result drained so a mid-run hot-swap
		// or rung change is visible as Algorithm != FinalAlgorithm.
		st.FinalAlgorithm, st.FinalDegradationLevel = d.DescribeAlgorithm()
	}
	st.ShardBusy = make([]time.Duration, nShards)
	for i, s := range shards {
		st.ShardBusy[i] = time.Duration(s.busy.Load())
	}
	return st, int(pulled), seq.finish()
}

// runErr is the error a finished run reports: the emit stage's own, else
// the cancellation that cut it short, else the contained panics.
func runErr(ctx context.Context, st *Stats, emitErr error, offered int) error {
	switch {
	case emitErr != nil:
		return emitErr
	case ctx.Err() != nil:
		return fmt.Errorf("engine: run cut short, %d of %d packets canceled: %w",
			st.Canceled, offered, ctx.Err())
	case st.Panics > 0:
		return fmt.Errorf("engine: %d of %d packets failed with contained classifier panics",
			st.Panics, offered)
	}
	return nil
}
