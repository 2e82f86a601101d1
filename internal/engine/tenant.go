// Multi-tenant serving: thousands of independent rule tables multiplexed
// over the engine's one serve loop (runShards in shard.go). Each packet
// carries a tenant ID; the dispatcher bins packets by (tenant, flow) so
// every dispatched batch is single-tenant by construction, and each shard
// resolves a batch's tenant to a lane of its own — the tenant's
// classifier and its own flow cache, with its own epoch and its own
// pinned generation, so a batch never straddles one tenant's hot-swap
// and one tenant's invalidation never stales another's cache. The lane
// table is the shard's only per-tenant state, the way each microengine
// keeps its threads' state in its own local memory. A single-table run is
// the one-tenant case of the same loop: every packet is tenant 0 and
// every batch is served on the shard's one lane.
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

// DefaultTenantPartitions bounds how many tenant lanes each shard keeps
// resident on the multi-tenant path (RunTenants), with or without flow
// caches: each resident lane owns its own FlowCacheFlows-flow cache, and
// admitting a tenant at the bound reclaims the least recently served lane
// with its cache (a tenant-evicted event when it held one, cold misses
// for the victim, never a correctness change).
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
// get the batched fast path, and those implementing flowcache.Versioned
// (update.Manager's Live) have their generation pinned per batch by the
// lane's flow cache — both detected dynamically, exactly as on a bare
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

// TenantCounts is one tenant's packet accounting over a run. The
// identity Offered == Classified + Shed + Canceled + Panicked holds
// exactly, per tenant, on every return path.
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

// countsOf is tenant tid's tally in m, created on first use.
func countsOf(m map[uint32]*TenantCounts, tid uint32) *TenantCounts {
	c := m[tid]
	if c == nil {
		c = new(TenantCounts)
		m[tid] = c
	}
	return c
}

// TenantStats extends the aggregate run Stats with per-tenant accounting.
type TenantStats struct {
	Stats
	Tenants map[uint32]*TenantCounts
}

// tenantLanes is a multi-tenant shard's lane table, the shard's only
// per-tenant state: each resident lane owns its tenant's flow cache and
// its recency stamp, at most DefaultTenantPartitions of them. Like the
// rest of the shard it belongs to the serve goroutine; the dispatcher
// reads only the resolver. A lane's cache counts are exported batch by
// batch as it serves (recordCache), so a dropped lane takes none with it.
type tenantLanes struct {
	resolver TenantResolver
	lanes    map[uint32]*lane
	flows    int    // each lane's flow-cache capacity, 0 for none
	clock    uint64 // bumped per batch; a lane's lastUse is its last reading

	events *obs.Ring // records tenant-evicted events for shard si
	si     int
}

// serveTenants makes s a multi-tenant shard: lanes are built on demand
// from the resolver, each with its own FlowCacheFlows-flow cache when
// that is set. The capacity is checked here, before any goroutine starts,
// since lanes build their caches only once serving.
func (s *shard) serveTenants(resolver TenantResolver, cfg *Config, si int) error {
	if int64(cfg.FlowCacheFlows) > flowcache.MaxCapacity {
		return fmt.Errorf("engine: shard %d flow cache: %w", si, &flowcache.CapacityError{Capacity: cfg.FlowCacheFlows})
	}
	s.tenants = &tenantLanes{resolver: resolver, lanes: make(map[uint32]*lane),
		flows: cfg.FlowCacheFlows, events: s.events, si: si}
	return nil
}

// laneFor resolves the tenant's lane, (re)building it on first sight or
// rebind, and stamps its recency. Unknown tenants and uncomparable lanes
// are refused with their error. The steady state is one resolver call and
// one map read.
func (t *tenantLanes) laneFor(tid uint32) (*lane, error) {
	tl := t.resolver.Lane(tid)
	if tl == nil {
		// Tenant gone (or never existed): drop whatever lane state it had
		// so a later re-add starts clean.
		delete(t.lanes, tid)
		return nil, ErrUnknownTenant
	}
	t.clock++
	l, ok := t.lanes[tid]
	// Only comparable lanes are ever stored, so this comparison cannot
	// panic: two interface values compare unequal without inspecting
	// either value when their dynamic types differ.
	if !ok || l.cl != tl {
		// First sight or rebind. A rebound tenant's cache fronts the old
		// lane's slow path, so it goes with the old lane.
		delete(t.lanes, tid)
		if !reflect.ValueOf(tl).Comparable() {
			return nil, ErrLaneUncomparable
		}
		if len(t.lanes) >= DefaultTenantPartitions {
			t.reclaim()
		}
		nl, err := newLane(tl, t.flows)
		if err != nil {
			return nil, err // unreachable: serveTenants checked the capacity
		}
		l = &nl
		t.lanes[tid] = l
	}
	l.lastUse = t.clock
	return l, nil
}

// reclaim drops the least recently served lane to make room for another.
func (t *tenantLanes) reclaim() {
	var victim uint32
	oldest := ^uint64(0)
	for tid, l := range t.lanes {
		if l.lastUse < oldest {
			victim, oldest = tid, l.lastUse
		}
	}
	if t.lanes[victim].cache != nil {
		t.events.Recordf(obs.EventTenantEvicted,
			"tenant %d flow-cache partition reclaimed on shard %d", victim, t.si)
	}
	delete(t.lanes, victim)
}

// RunTenants serves a multi-tenant packet stream through cfg.Shards
// tenant-aware shards and returns per-tenant accounting alongside the
// usual aggregate Stats. Contracts mirror RunContext's — ordered emission
// under PreserveOrder, batch-granular shed/cancel, per-packet panic
// attribution — with tenancy layered on:
//
//   - every batch is single-tenant, so the generation a lane's cache pins
//     per batch is its own tenant's;
//   - the overload policy is the tenant's own (TenantLane.ShedOnOverload),
//     falling back to cfg.Overload for unknown tenants. A blocking tenant
//     stalls the dispatcher when its shard queue fills — head-of-line
//     blocking that can delay other tenants' dispatch; shed is the
//     isolating policy and what hostile-tenant configurations should use;
//   - packets of unknown tenants are refused with ErrUnknownTenant, and
//     those of tenants with uncomparable lanes with ErrLaneUncomparable
//     (both accounted as shed, never silently dropped);
//   - cfg.FlowCacheFlows sizes each tenant lane's flow cache on each shard
//     and DefaultTenantPartitions bounds resident lanes per shard.
//
// emit may be nil. The returned TenantStats satisfies, for every tenant,
// Offered == Classified + Shed + Canceled + Panicked.
func RunTenants(ctx context.Context, resolver TenantResolver, cfg Config, pkts []TenantPacket, emit func(TenantResult)) (TenantStats, error) {
	ts := TenantStats{Tenants: make(map[uint32]*TenantCounts)}
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
	hs, tids := make([]rules.Header, cfg.BatchSize), make([]uint32, cfg.BatchSize)
	off := 0
	st, pulled, emitErr := runShards(ctx, &cfg, shards, ts.Tenants, func() ([]rules.Header, []uint32, bool) {
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
		tc := countsOf(ts.Tenants, p.Tenant)
		tc.Offered++
		tc.Canceled++
	}
	return ts, runErr(ctx, &ts.Stats, emitErr, len(pkts))
}
