// Sharded serving: the engine's one serve loop. The paper's IXP2850
// mapping gives every microengine its own thread group, local flow state
// and a hardware hash unit that sprays packets across engines by 5-tuple;
// this file is the commodity-core translation. A dispatcher hashes each
// packet's (tenant, flow) onto one of cfg.Shards lanes, so all packets of a
// flow are classified by the same goroutine against that shard's private
// flow cache — the hot path shares no mutable state across shards. A stage
// hands its successor a pointer to the batch, never the packets: the batch
// the dispatcher filled is the batch the shard classifies in place and the
// batch the sequencer (sequencer.go) emits from, in arrival order, before
// returning it to the run's one pool. RunContext serves a slice through
// this core, RunStream a Source and RunTenants a multi-tenant slice; all
// three get ordered emission, gap-free shed/cancel markers and per-packet
// panic attribution from the same dispatcher and the same serve loop.
package engine

import (
	"context"
	"fmt"
	"sync"
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

// shardOf pins a (tenant, flow) pair to a shard with a multiply-shift
// reduction (no modulo on the per-packet path). The tenant ID is folded
// into the flow hash so two tenants' identical 5-tuples spread
// independently; tenant 0, which every single-table packet is, leaves the
// hash as it is.
func shardOf(tid uint32, h rules.Header, shards int) int {
	return int(uint64(flowHash(h)^(tid*0x9E3779B1)) * uint64(shards) >> 32)
}

// lane is the classification state of one serving context: the
// classifier (batched when it supports it), an optional private flow
// cache, and the generation-bracketing state that keeps a batch from
// straddling a hot-swap. A single-table shard owns one lane; a
// multi-tenant shard keeps one lane per tenant so every tenant gets its
// own cache epoch and its own generation bracket.
type lane struct {
	cl    Classifier
	bc    rules.BatchClassifier // cl, if it has a batched path; else nil
	cache *flowcache.Cache
	gen   generationProvider // consulted only when cache != nil

	lastGen uint64
	lastUse uint64 // tenant lanes: the table's clock at the lane's last batch
	// seenHits, seenMisses and seenRefused are the cache's counts as last
	// exported (recordCache), so each batch exports only its own delta.
	seenHits, seenMisses, seenRefused uint64
}

// newLane is the lane over cl, with its batched path found once and, when
// flows > 0, a private flow cache bracketed from cl's current generation.
func newLane(cl Classifier, flows int) (lane, error) {
	l := lane{cl: cl}
	l.bc, _ = cl.(rules.BatchClassifier)
	if flows > 0 {
		c, err := newFlowCache(cl, flows)
		if err != nil {
			return l, err
		}
		l.cache = c
		if l.gen, _ = cl.(generationProvider); l.gen != nil {
			l.lastGen = l.gen.Generation()
		}
	}
	return l, nil
}

// shard is one serving loop: a private job ring and the lane state it
// classifies with. The dispatcher touches only the ring (and, on the
// tenant path, the resolver); everything else belongs to the shard's serve
// goroutine.
type shard struct {
	// lane serves every batch of a single-table run. tenants, set on the
	// multi-tenant path instead, resolves each batch's own lane.
	lane
	tenants *tenantLanes

	jobs chan *batch

	busy time.Duration // cumulative classification time, stored as serve exits

	// m is the shard's instrument block and events the flight recorder
	// (both nil when Config.Metrics is unset).
	m      *shardMetrics
	events *obs.Ring
}

// serve is the shard's loop: drain the job ring, classify each batch in
// place on its lane with panic containment, pass the same batch on. With
// metrics, it records the batch's work and the served lane's cache
// delta; the batch's outcomes are counted where it is emitted. It
// fails canceled batches fast (the ring drains at cancellation speed,
// which is what bounds dispatcher blocking under OverloadBlock) and never
// exits before its ring closes, so delivery can never deadlock.
func (s *shard) serve(ctx context.Context, results chan<- *batch) {
	var total time.Duration // not s.busy: the dispatcher reads s every batch
	for b := range s.jobs {
		queued := len(s.jobs)
		l, err := &s.lane, ctx.Err()
		if err == nil && s.tenants != nil {
			l, err = s.tenants.laneFor(b.tenant)
		}
		if err != nil {
			b.err = err
		} else {
			start := time.Now()
			l.classify(b, s.m, s.events)
			busy := time.Since(start)
			total += busy
			if s.m != nil {
				s.m.recordBatch(len(b.hs), busy, queued)
				s.m.recordCache(l)
			}
		}
		results <- b
	}
	s.busy = total
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
func (l *lane) classify(b *batch, m *shardMetrics, events *obs.Ring) {
	if l.cache == nil {
		classifyBatch(l.cl, l.bc, b)
		return
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
		classifyBatch(l.cache, l.cache, b)
		if l.gen == nil || l.gen.Generation() == gen {
			return
		}
		// A swap landed mid-batch: results may mix generations. Loop and
		// redo the batch against the settled generation.
	}
	// Churn outpaced the retry budget: serve this batch cache-free. The
	// next batch re-enters the protocol (and stales the cache then).
	m.addCacheBypass()
	classifyBatch(l.cl, l.bc, b)
}

// makeShards constructs and validates every shard for one run before any
// goroutine launches: a single-table lane over cl, or — with a resolver,
// and cl nil — a tenant lane table. Construction must not be folded into
// the launch loop: if shard i's flow cache fails to construct after shards
// 0..i-1 started serving, those goroutines would block forever on their
// never-closed job rings — nothing in the early-return path would ever
// close them.
func makeShards(cl Classifier, resolver TenantResolver, cfg *Config) ([]*shard, error) {
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		s := &shard{jobs: make(chan *batch, cfg.QueueDepth)}
		if cfg.Metrics != nil {
			s.m = cfg.Metrics.shard(i)
			s.events = cfg.Metrics.events
		}
		if resolver != nil {
			if err := s.serveTenants(resolver, cfg, i); err != nil {
				return nil, err
			}
		} else {
			l, err := newLane(cl, cfg.FlowCacheFlows)
			if err != nil {
				return nil, fmt.Errorf("engine: shard %d flow cache: %w", i, err)
			}
			s.lane = l
		}
		shards[i] = s
	}
	return shards, nil
}

// runShards is the serve loop behind RunContext, RunStream and RunTenants.
// next surrenders the input a run of headers at a time, with each header's
// tenant (tids nil: all tenant 0); both slices are valid until the next
// call, and more=false ends the input. A run shorter than a batch is a
// batch boundary and flushes every half-built batch (see Source). tally,
// set on the tenant path only, receives each tenant's counts. flush, if
// set, runs on the emit goroutine whenever an arrival's emission leaves
// no result waiting (see Source). runShards returns once every pulled
// packet has been emitted, with how many were pulled and the emit stage's
// error, if any.
func runShards(ctx context.Context, cfg *Config, shards []*shard, tally map[uint32]*TenantCounts,
	next func() (hs []rules.Header, tids []uint32, more bool), emit func(Result), flush func()) (Stats, int, error) {
	nShards := len(shards)
	// Sized like a job ring: a lane that finishes a batch should find room
	// for it rather than wait on the sequencer.
	results := make(chan *batch, cfg.QueueDepth)
	pool := newBatchPool(cfg.BatchSize)
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serve(ctx, results)
		}()
	}

	// pulled is written by the dispatcher before it closes the job rings
	// and read after results closes; the closes order the two.
	var pulled uint64
	go func() {
		// Dispatcher: bin each pull into pending batches by (tenant, flow
		// hash), send a batch when it fills, and flush the half-built ones
		// when a pull comes up short. Every batch is single-tenant, bound
		// for one shard. Cancellation is polled once per pull; the pending
		// batches it cuts off are delivered as canceled results — never
		// silently dropped — because their sequence numbers sit between
		// already-dispatched ones. Only what was never pulled is left out.
		defer func() {
			for _, s := range shards {
				close(s.jobs)
			}
		}()
		// rows holds each tenant's pending batches, one slot per shard. A
		// single-table run bins every pull into tenant 0's row, held in row0,
		// so it makes no map access at all.
		rows := make(map[uint32][]*batch)
		rowOf := func(tid uint32) []*batch {
			row := rows[tid]
			if row == nil {
				row = make([]*batch, nShards)
				rows[tid] = row
			}
			return row
		}
		// send hands a batch to its shard, or — failed with err, or shed —
		// straight to the sequencer, which keeps the sequence space
		// gap-free. The overload policy is cfg's, or on the tenant path the
		// tenant lane's own (cfg's for an unknown tenant). A shedding
		// dispatcher never waits: a batch that finds the ring full overtakes
		// the queued ones to the sequencer as ErrShed markers.
		send := func(b *batch, err error) {
			s := shards[b.si]
			shed := cfg.Overload == OverloadShed
			if s.tenants != nil {
				if tl := s.tenants.resolver.Lane(b.tenant); tl != nil {
					shed = tl.ShedOnOverload()
				}
			}
			switch {
			case err != nil:
			case !shed:
				s.jobs <- b
				return
			default:
				select {
				case s.jobs <- b:
					return
				default:
					err = ErrShed
				}
			}
			b.err = err
			results <- b
		}
		// bin files a run of one tenant's packets, numbered from seq, into
		// the tenant's row and returns the next number. It is a call of its
		// own so the per-packet loop keeps its state in registers.
		size := cfg.BatchSize
		bin := func(hs []rules.Header, tid uint32, row []*batch, seq uint64) uint64 {
			for _, h := range hs {
				si := 0
				if nShards > 1 {
					si = shardOf(tid, h, nShards)
				}
				b := row[si]
				if b == nil {
					b = pool.get()
					b.tenant, b.si = tid, si
					row[si] = b
				}
				b.seqs = append(b.seqs, seq)
				b.hs = append(b.hs, h)
				seq++
				if len(b.hs) == size {
					row[si] = nil
					send(b, nil)
				}
			}
			return seq
		}
		row0, seq := rowOf(0), uint64(0)
		for {
			var hs []rules.Header
			var tids []uint32
			more := false
			err := ctx.Err()
			if err == nil {
				hs, tids, more = next()
			}
			if tids == nil {
				seq = bin(hs, 0, row0, seq)
			}
			// The tenant path bins each run of equal tenant IDs at once.
			for lo, hi := 0, 0; lo < len(tids); lo = hi {
				tid := tids[lo]
				for hi = lo + 1; hi < len(tids) && tids[hi] == tid; hi++ {
				}
				seq = bin(hs[lo:hi], tid, rowOf(tid), seq)
			}
			if more && len(hs) == size {
				continue
			}
			// A short pull, the end of the input, or cancellation: nothing
			// stays half-built.
			for _, row := range rows {
				for si, b := range row {
					if b != nil {
						row[si] = nil
						send(b, err)
					}
				}
			}
			if !more {
				pulled = seq
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	st := Stats{Shards: nShards}
	seq := newSequencer(cfg, &st, pool, emit)
	// Draining results unconditionally until close is what guarantees the
	// lanes can always deliver and never leak. The counts accept returns
	// are the batch's only tally: Stats, the shard's outcome counters and
	// the tenant's counts all take them from here.
	for b := range results {
		m, tid := shards[b.si].m, b.tenant // accept may recycle b
		c := seq.accept(b)
		m.count(c)
		if tally != nil {
			countsOf(tally, tid).add(c)
		}
		// The last arrival always finds the channel empty, so flush also
		// runs after the last result.
		if flush != nil && len(results) == 0 {
			flush()
		}
	}
	st.ShardBusy = make([]time.Duration, nShards)
	for i, s := range shards {
		st.ShardBusy[i] = s.busy
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
