// Multi-tenant serving: thousands of independent rule tables multiplexed
// over the engine's one serve loop (runShards in shard.go). Each packet
// carries a tenant ID; the dispatcher bins packets by (tenant, flow) so
// every dispatched batch is single-tenant by construction, and each shard
// resolves a batch's tenant to a lane of its own — the tenant's
// classifier, its own flow-cache partition with its own epoch, and its
// own generation bracket, so a batch never straddles one tenant's
// hot-swap and one tenant's invalidation never stales another's cache.
// The NP analogue is SRAM banking: one physical memory, per-tenant banks,
// no cross-bank interference. A single-table run is the one-tenant case
// of the same loop: every packet is tenant 0 and every batch is served on
// the shard's one lane.
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
	"reflect"

	"repro/internal/flowcache"
	"repro/internal/obs"
	"repro/internal/rules"
)

// DefaultTenantPartitions bounds how many tenants per shard keep a
// resident flow-cache partition on the multi-tenant path (RunTenants):
// each resident tenant gets its own FlowCacheFlows-flow cache, and at the
// bound the least recently served tenant's partition is reclaimed (a
// tenant-evicted event, cold misses for the victim, never a correctness
// change).
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
// overload policy. Implementations that also implement rules.BatchClassifier
// get the batched fast path, and those implementing Generation() (the
// update.Manager contract) get per-batch generation bracketing — both
// detected dynamically, exactly like RunContext detects them on a bare
// classifier. internal/tenant.Runtime is the canonical implementation.
//
// A lane's dynamic value must be comparable — a pointer, or a struct
// whose fields are all comparable: each shard tells a rebind apart from
// the lane it already built by comparing the resolver's answer with it.
// A lane that cannot be compared (one holding a slice, map or func) is
// refused: its packets fail with ErrLaneUncomparable.
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

// ErrLaneUncomparable marks results for packets whose tenant's lane is
// not comparable (see TenantLane). Like ErrUnknownTenant it is an
// admission refusal and wraps ErrShed.
var ErrLaneUncomparable = fmt.Errorf("engine: tenant lane of uncomparable type: %w", ErrShed)

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

// tenantLedger is RunTenants' per-tenant accounting, kept by two
// bookkeepers that share no state: the dispatcher tallies Offered for
// every batch it hands off, the emission goroutine each arrived batch's
// outcomes. The accounting identity then cross-checks the one against the
// other.
type tenantLedger struct {
	shards            int
	offered, outcomes map[uint32]*TenantBreakdown
}

// counts is tenant tid's tally on shard si in m, created on first use.
func (l *tenantLedger) counts(m map[uint32]*TenantBreakdown, tid uint32, si int) *TenantCounts {
	bd := m[tid]
	if bd == nil {
		bd = &TenantBreakdown{Shards: make([]TenantCounts, l.shards)}
		m[tid] = bd
	}
	return &bd.Shards[si]
}

// tenantLanes is a multi-tenant shard's lane table. Like the rest of the
// shard it belongs to the serve goroutine; the dispatcher reads only the
// resolver.
type tenantLanes struct {
	resolver TenantResolver
	lanes    map[uint32]*lane
	parts    *flowcache.Partitioned // nil when FlowCacheFlows == 0
}

// serveTenants makes s a multi-tenant shard: lanes are built on demand
// from the resolver, and with FlowCacheFlows set each tenant gets its own
// flow-cache partition, at most DefaultTenantPartitions resident at once.
func (s *shard) serveTenants(resolver TenantResolver, cfg *Config, si int) error {
	t := &tenantLanes{resolver: resolver, lanes: make(map[uint32]*lane)}
	if cfg.FlowCacheFlows > 0 {
		p, err := flowcache.NewPartitioned(cfg.FlowCacheFlows, DefaultTenantPartitions)
		if err != nil {
			return fmt.Errorf("engine: shard %d tenant partitions: %w", si, err)
		}
		events := s.events
		p.OnEvict = func(victim uint32) {
			delete(t.lanes, victim)
			events.Recordf(obs.EventTenantEvicted,
				"tenant %d flow-cache partition reclaimed on shard %d", victim, si)
		}
		t.parts, s.counters = p, p
	}
	s.tenants = t
	return nil
}

// laneFor resolves the tenant's lane, (re)building it on first sight or
// rebind and re-resolving the flow-cache partition every call (the
// partition may have been reclaimed for another tenant since the last
// batch; Partition also stamps recency, which is what drives partition
// eviction by actual traffic). Unknown tenants and uncomparable lanes are
// refused with their error. The steady state — known tenant, resident
// partition — is two map reads.
func (t *tenantLanes) laneFor(tid uint32) (*lane, error) {
	tl := t.resolver.Lane(tid)
	if tl == nil {
		// Tenant gone (or never existed): drop whatever lane state it had
		// so a later re-add starts clean.
		t.drop(tid)
		return nil, ErrUnknownTenant
	}
	l, ok := t.lanes[tid]
	// Only comparable lanes are ever stored, so this comparison cannot
	// panic: two interface values compare unequal without inspecting
	// either value when their dynamic types differ.
	if !ok || l.cl != tl {
		// First sight or rebind. A rebound tenant's partition fronts the
		// old lane's slow path, so it goes with the old lane.
		t.drop(tid)
		if !reflect.ValueOf(tl).Comparable() {
			return nil, ErrLaneUncomparable
		}
		nl := newLane(tl)
		l = &nl
		l.gen, _ = tl.(generationProvider)
		t.lanes[tid] = l
	}
	if t.parts != nil {
		c, err := t.parts.Partition(tid, tl)
		if err != nil {
			// Unreachable: bounds are validated at construction. Serve
			// cache-free rather than fail the batch.
			c = nil
		}
		if c != l.cache {
			// Fresh partition (first use, or re-admitted after eviction):
			// it is empty, so bracket from the current generation.
			l.cache = c
			if l.gen != nil {
				l.lastGen = l.gen.Generation()
			}
		}
	}
	return l, nil
}

// drop forgets a tenant's lane and flow-cache partition.
func (t *tenantLanes) drop(tid uint32) {
	if _, ok := t.lanes[tid]; ok {
		delete(t.lanes, tid)
		if t.parts != nil {
			t.parts.Drop(tid)
		}
	}
}

// RunTenants serves a multi-tenant packet stream through cfg.Shards
// tenant-aware shards and returns per-tenant accounting alongside the
// usual aggregate Stats. Contracts mirror RunContext's — ordered emission
// under PreserveOrder, batch-granular shed/cancel, per-packet panic
// attribution — with tenancy layered on:
//
//   - every batch is single-tenant, so per-batch generation bracketing is
//     per-tenant bracketing;
//   - the overload policy is the tenant's own (TenantLane.ShedOnOverload),
//     falling back to cfg.Overload for unknown tenants. A blocking tenant
//     stalls the dispatcher when its shard queue fills — head-of-line
//     blocking that can delay other tenants' dispatch; shed is the
//     isolating policy and what hostile-tenant configurations should use;
//   - packets of unknown tenants are refused with ErrUnknownTenant, and
//     those of tenants with uncomparable lanes with ErrLaneUncomparable
//     (both accounted as shed, never silently dropped);
//   - cfg.FlowCacheFlows sizes each tenant's per-shard cache partition
//     and DefaultTenantPartitions bounds resident partitions per shard.
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
	shards, err := makeShards(nil, resolver, &cfg)
	if err != nil {
		return ts, err
	}
	n := cfg.Shards
	userEmit := func(Result) {}
	if emit != nil {
		userEmit = func(r Result) {
			p := pkts[r.Seq]
			emit(TenantResult{Result: r, Tenant: p.Tenant, Shard: shardOf(p.Tenant, p.Header, n)})
		}
	}
	led := &tenantLedger{shards: n, offered: make(map[uint32]*TenantBreakdown), outcomes: ts.Tenants}
	hs, tids := make([]rules.Header, cfg.BatchSize), make([]uint32, cfg.BatchSize)
	off := 0
	st, pulled, emitErr := runShards(ctx, nil, &cfg, shards, led, func() ([]rules.Header, []uint32, bool) {
		view := pkts[off:min(off+cfg.BatchSize, len(pkts))]
		for i, p := range view {
			hs[i], tids[i] = p.Header, p.Tenant
		}
		off += len(view)
		return hs[:len(view)], tids[:len(view)], off < len(pkts)
	}, userEmit, nil)
	ts.Stats = st

	// The contiguous tail the dispatcher never pulled was offered to this
	// run and went nowhere: Offered and Canceled both, never emitted.
	tail := pkts[pulled:]
	ts.Canceled += len(tail)
	cfg.Metrics.recordUndispatched(uint64(len(tail)))
	for _, p := range tail {
		sc := led.counts(ts.Tenants, p.Tenant, shardOf(p.Tenant, p.Header, n))
		sc.Offered++
		sc.Canceled++
	}
	// Fold the dispatcher's independent Offered ledger in and derive totals.
	for tid, bd := range led.offered {
		for si := range bd.Shards {
			led.counts(ts.Tenants, tid, si).Offered += bd.Shards[si].Offered
		}
	}
	for _, bd := range ts.Tenants {
		for si := range bd.Shards {
			bd.Total.add(bd.Shards[si])
		}
	}
	return ts, runErr(ctx, &ts.Stats, emitErr, len(pkts))
}
