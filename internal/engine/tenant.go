// Multi-tenant serving: thousands of independent rule tables multiplexed
// over the same shard loops. Each packet carries a tenant ID; the
// dispatcher bins packets by (tenant, flow) so every dispatched batch is
// single-tenant by construction, and each shard keeps one classification
// lane per tenant — the tenant's classifier, its own flow-cache
// partition with its own epoch, and its own generation bracket, so a
// batch never straddles one tenant's hot-swap and one tenant's
// invalidation never stales another's cache. The NP analogue is SRAM
// banking: one physical memory, per-tenant banks, no cross-bank
// interference.
//
// Isolation is the contract, not an optimization: a hostile tenant may
// drive its own lane to the bottom of its degradation ladder, flood its
// own queue slots and churn its own generations, but the only resources
// it shares with other tenants are the shard CPUs (arbitrated by the
// queue) and the global build-admission budget (arbitrated fair-share by
// the tenant registry) — both of which degrade it first.
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

// DefaultTenantPartitions is Config.TenantPartitions when unset: how many
// tenants per shard keep a resident flow-cache partition before the
// least recently served one is reclaimed.
const DefaultTenantPartitions = 64

// TenantPacket is one packet of the multi-tenant input stream: the
// header plus the tenant whose rule table must classify it (from the
// wire representation, see tenant.ParseID).
type TenantPacket struct {
	Tenant uint32
	Header rules.Header
}

// TenantResult is a Result plus its tenant attribution and the shard
// that served it.
type TenantResult struct {
	Result
	Tenant uint32
	Shard  int
}

// TenantLane is what the engine needs from one tenant's serving state:
// classification against the tenant's live rule table and the tenant's
// overload policy. Implementations that also implement BatchClassifier
// get the batched fast path, and those implementing Generation() (the
// update.Manager contract) get per-batch generation bracketing — both
// detected dynamically, exactly like RunContext detects them on a bare
// classifier. internal/tenant.Runtime is the canonical implementation.
type TenantLane interface {
	Classifier
	// ShedOnOverload reports the tenant's overload policy: true to shed
	// (ErrShed results when the tenant's shard queue is full), false to
	// block the dispatcher until the queue drains.
	ShedOnOverload() bool
}

// TenantResolver maps tenant IDs to lanes. Lane must be safe for
// concurrent use from every shard and the dispatcher, cheap enough for
// per-batch calls (the registry implementation is one atomic load and a
// map read, 0 allocs), and must return nil — not a typed-nil interface —
// for unknown tenants.
type TenantResolver interface {
	Lane(id uint32) TenantLane
}

// ErrUnknownTenant marks results for packets whose tenant the resolver
// does not know. It wraps ErrShed: an unknown tenant is an admission
// refusal, accounted as shed, never as a failure of a serving tenant.
var ErrUnknownTenant = fmt.Errorf("engine: unknown tenant: %w", ErrShed)

// TenantCounts is one tenant's packet accounting on one shard (or in
// total). The identity Offered == Classified + Shed + Canceled +
// Panicked holds exactly, per shard and per tenant, on every return path.
type TenantCounts struct {
	Offered    uint64
	Classified uint64
	Shed       uint64
	Canceled   uint64
	Panicked   uint64
}

func (c *TenantCounts) add(o TenantCounts) {
	c.Offered += o.Offered
	c.Classified += o.Classified
	c.Shed += o.Shed
	c.Canceled += o.Canceled
	c.Panicked += o.Panicked
}

// TenantBreakdown is one tenant's accounting: totals plus the per-shard
// split they are summed from.
type TenantBreakdown struct {
	Total  TenantCounts
	Shards []TenantCounts
}

// TenantStats extends the aggregate run Stats with per-tenant accounting.
// Stats.Algorithm stays empty: there is no single algorithm when every
// tenant rides its own ladder rung (ask the tenant registry instead).
type TenantStats struct {
	Stats
	Tenants map[uint32]*TenantBreakdown
}

// tenantShardOf pins (tenant, flow) to a shard: same flow hash as the
// single-table path, with the tenant ID folded in so two tenants'
// identical 5-tuples spread independently.
func tenantShardOf(tid uint32, h rules.Header, shards int) int {
	x := uint64(flowHash(h) ^ (tid * 0x9E3779B1))
	return int(x * uint64(shards) >> 32)
}

// tenantLaneState is one (shard, tenant) lane plus the TenantLane it was
// built from, so a registry rebind (Remove + Add, or a swapped runtime)
// is detected as a pointer change and the lane rebuilt from scratch.
type tenantLaneState struct {
	lane
	src TenantLane
}

// tenantShard is one serving loop of the multi-tenant path. Like shard,
// everything here is single-goroutine: the dispatcher touches only the
// job ring, the serve goroutine owns the lane map and the flow-cache
// partitions.
type tenantShard struct {
	jobs chan *batch

	si       int
	resolver TenantResolver
	lanes    map[uint32]*tenantLaneState
	parts    *flowcache.Partitioned // nil when FlowCacheFlows == 0
	// Pipelined stage walk for lanes whose classifier supports it
	// (Config.PipelineGroup / Config.PipelineAffine).
	pipeGroup  int
	pipeAffine bool

	busy time.Duration

	m      *shardMetrics
	events *obs.Ring
	// The partitions' previous cumulative counter readings, so hits and
	// misses are exported as per-batch deltas (as shard does for its cache).
	lastHits, lastMisses uint64
}

// laneFor resolves the tenant's lane, (re)building it on first sight or
// rebind and re-resolving the flow-cache partition every call (the
// partition may have been reclaimed for another tenant since the last
// batch; Partition also stamps recency, which is what drives partition
// eviction by actual traffic). Returns nil for unknown tenants. The
// steady state — known tenant, resident partition — is two map reads.
func (s *tenantShard) laneFor(tid uint32) *lane {
	tl := s.resolver.Lane(tid)
	if tl == nil {
		// Tenant gone (or never existed): drop whatever lane state it had
		// so a later re-add starts clean.
		if _, ok := s.lanes[tid]; ok {
			delete(s.lanes, tid)
			if s.parts != nil {
				s.parts.Drop(tid)
			}
		}
		return nil
	}
	ls, ok := s.lanes[tid]
	if !ok || ls.src != tl {
		if ok && s.parts != nil {
			// Rebind: the cached partition fronts the old lane's slow path.
			s.parts.Drop(tid)
		}
		if !ok {
			ls = &tenantLaneState{}
			s.lanes[tid] = ls
		}
		ls.src = tl
		ls.cl = tl
		ls.bc, _ = tl.(BatchClassifier)
		if s.pipeGroup > 0 {
			if pc, ok := tl.(PipelinedClassifier); ok {
				// The tenant's batches (and, below, its flow-cache
				// partition's miss sub-batches) take the staged walk.
				ls.bc = pipelined{pc: pc, group: s.pipeGroup, affine: s.pipeAffine}
			}
		}
		ls.gen, _ = tl.(generationProvider)
		ls.cache = nil
		ls.lastGen = 0
	}
	if s.parts != nil {
		slow := Classifier(tl)
		if ls.bc != nil {
			slow = ls.bc
		}
		c, err := s.parts.Partition(tid, slow)
		if err != nil {
			// Unreachable: bounds are validated at construction. Serve
			// cache-free rather than fail the batch.
			c = nil
		}
		if c != ls.cache {
			// Fresh partition (first use, or re-admitted after eviction):
			// it is empty, so bracket from the current generation.
			ls.cache = c
			if ls.gen != nil {
				ls.lastGen = ls.gen.Generation()
			}
		}
	}
	return &ls.lane
}

// serve is the tenant shard loop: resolve the batch's lane, classify in
// place under the tenant's own generation bracket, pass the batch on.
func (s *tenantShard) serve(ctx context.Context, results chan<- *batch) {
	for b := range s.jobs {
		queued := len(s.jobs)
		if err := ctx.Err(); err != nil {
			fail(b, err, s.m)
		} else if l := s.laneFor(b.tenant); l == nil {
			fail(b, ErrUnknownTenant, s.m)
		} else {
			start := time.Now()
			p := l.classify(b, s.m, s.events)
			busy := time.Since(start)
			s.busy += busy
			if s.m != nil {
				s.m.recordBatch(len(b.hs), busy, queued)
				s.m.addPanics(uint64(p))
				if s.parts != nil {
					hits, misses := s.parts.Stats()
					s.m.recordCache(hits, misses, &s.lastHits, &s.lastMisses)
				}
			}
		}
		results <- b
	}
}

// RunTenants serves a multi-tenant packet stream through cfg.Shards
// tenant-aware shard loops and returns per-tenant accounting alongside
// the usual aggregate Stats. Contracts mirror RunContext's sharded path —
// ordered emission under PreserveOrder, batch-granular shed/cancel,
// per-packet panic attribution — with tenancy layered on:
//
//   - every batch is single-tenant, so per-batch generation bracketing is
//     per-tenant bracketing;
//   - the overload policy is the tenant's own (TenantLane.ShedOnOverload),
//     falling back to cfg.Overload for unknown tenants. A blocking tenant
//     stalls the dispatcher when its shard queue fills — head-of-line
//     blocking that can delay other tenants' dispatch; shed is the
//     isolating policy and what hostile-tenant configurations should use;
//   - packets of unknown tenants are refused with ErrUnknownTenant
//     (accounted as shed, never silently dropped);
//   - cfg.FlowCacheFlows sizes each tenant's per-shard cache partition
//     and cfg.TenantPartitions bounds resident partitions per shard.
//
// emit may be nil. The returned TenantStats satisfies, for every tenant
// and every shard, Offered == Classified + Shed + Canceled + Panicked.
func RunTenants(ctx context.Context, resolver TenantResolver, cfg Config, pkts []TenantPacket, emit func(TenantResult)) (TenantStats, error) {
	ts := TenantStats{Tenants: make(map[uint32]*TenantBreakdown)}
	if resolver == nil {
		return ts, fmt.Errorf("engine: nil tenant resolver")
	}
	if err := cfg.fillDefaults(); err != nil {
		return ts, err
	}
	nShards := cfg.Shards
	ts.Stats.Shards = nShards
	shardFor := func(p TenantPacket) int {
		if nShards > 1 {
			return tenantShardOf(p.Tenant, p.Header, nShards)
		}
		return 0
	}
	bdOf := func(m map[uint32]*TenantBreakdown, tid uint32) *TenantBreakdown {
		bd := m[tid]
		if bd == nil {
			bd = &TenantBreakdown{Shards: make([]TenantCounts, nShards)}
			m[tid] = bd
		}
		return bd
	}

	// Sized like a job ring: a lane that finishes a batch should find room
	// for it rather than wait on the sequencer.
	results := make(chan *batch, cfg.QueueDepth)
	pool := newBatchPool(cfg.BatchSize)
	shards := make([]*tenantShard, nShards)
	for i := range shards {
		s := &tenantShard{
			jobs:       make(chan *batch, cfg.QueueDepth),
			si:         i,
			resolver:   resolver,
			lanes:      make(map[uint32]*tenantLaneState),
			pipeGroup:  cfg.PipelineGroup,
			pipeAffine: cfg.PipelineAffine,
		}
		if cfg.FlowCacheFlows > 0 {
			p, err := flowcache.NewPartitioned(cfg.FlowCacheFlows, cfg.TenantPartitions)
			if err != nil {
				return ts, fmt.Errorf("engine: shard %d tenant partitions: %w", i, err)
			}
			events := cfg.Metrics.eventsRing()
			p.OnEvict = func(victim uint32) {
				delete(s.lanes, victim)
				events.Recordf(obs.EventTenantEvicted,
					"tenant %d flow-cache partition reclaimed on shard %d", victim, s.si)
			}
			s.parts = p
		}
		if cfg.Metrics != nil {
			s.m = cfg.Metrics.shard(i)
			s.events = cfg.Metrics.events
		}
		shards[i] = s
	}
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serve(ctx, results)
		}()
	}

	// The dispatcher keeps its own per-(tenant, shard) Offered tally,
	// independent of the emission side's outcome tally — the accounting
	// identity is cross-checked between two bookkeepers that share no state.
	// The map travels over a channel once dispatch ends (which
	// happens-before results closes).
	offeredCh := make(chan map[uint32]*TenantBreakdown, 1)
	undispatched := 0 // ordered like offered: written before offeredCh is sent on
	go func() {
		offered := make(map[uint32]*TenantBreakdown)
		defer func() {
			offeredCh <- offered
			for _, s := range shards {
				close(s.jobs)
			}
		}()
		// pending is keyed by (tenant, shard): batches are single-tenant,
		// so two tenants interleaved on one shard fill separate batches.
		pending := make(map[uint64]*batch)
		flush := func(key uint64, b *batch) {
			delete(pending, key)
			s := shards[b.si]
			shed := cfg.Overload == OverloadShed
			if tl := resolver.Lane(b.tenant); tl != nil {
				shed = tl.ShedOnOverload()
			}
			dispatch(b, s.jobs, results, shed, s.m)
		}
		n := len(pkts)
		for i := 0; i < n; i += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				// Count the contiguous undispatched tail per tenant (Offered
				// and Canceled both — they were offered to this run and went
				// nowhere), then fail the cut-off pending batches through the
				// results channel.
				undispatched = n - i
				cfg.Metrics.recordUndispatched(uint64(n - i))
				for _, p := range pkts[i:] {
					sc := &bdOf(offered, p.Tenant).Shards[shardFor(p)]
					sc.Offered++
					sc.Canceled++
				}
				for key, b := range pending {
					delete(pending, key)
					fail(b, err, shards[b.si].m)
					results <- b
				}
				return
			}
			for k, p := range pkts[i:min(i+cfg.BatchSize, n)] {
				si := shardFor(p)
				bdOf(offered, p.Tenant).Shards[si].Offered++
				key := uint64(p.Tenant)<<32 | uint64(uint32(si))
				b := pending[key]
				if b == nil {
					b = pool.get()
					b.tenant, b.si = p.Tenant, si
					pending[key] = b
				}
				b.seqs = append(b.seqs, uint64(i+k))
				b.hs = append(b.hs, p.Header)
				if len(b.hs) == cfg.BatchSize {
					flush(key, b)
				}
			}
		}
		for key, b := range pending {
			flush(key, b)
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	userEmit := func(Result) {}
	if emit != nil {
		userEmit = func(r Result) {
			p := pkts[r.Seq]
			emit(TenantResult{Result: r, Tenant: p.Tenant, Shard: shardFor(p)})
		}
	}
	seq := newSequencer(&cfg, &ts.Stats, pool, userEmit)
	// Outcomes are tallied per batch at receipt — they are final before
	// the sequencer touches them, and every batch is single-tenant from a
	// known shard, so attribution is two field reads, not a per-result map
	// lookup.
	for b := range results {
		sc := &bdOf(ts.Tenants, b.tenant).Shards[b.si] // accept may recycle b
		sc.add(seq.accept(b))
	}

	// Fold the dispatcher's independent Offered/undispatched ledger in and
	// derive totals.
	for tid, bd := range <-offeredCh {
		dst := bdOf(ts.Tenants, tid)
		for si := range bd.Shards {
			dst.Shards[si].Offered += bd.Shards[si].Offered
			dst.Shards[si].Canceled += bd.Shards[si].Canceled
		}
	}
	for _, bd := range ts.Tenants {
		for si := range bd.Shards {
			bd.Total.add(bd.Shards[si])
		}
	}

	ts.Stats.Canceled += undispatched
	ts.Stats.ShardBusy = make([]time.Duration, nShards)
	for i, s := range shards {
		ts.Stats.ShardBusy[i] = s.busy
	}
	return ts, runErr(ctx, &ts.Stats, seq.finish(), len(pkts))
}
