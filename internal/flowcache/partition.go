// Per-tenant flow-cache partitioning. A multi-tenant shard loop cannot
// share one Cache across tenants: the key is the 5-tuple alone, so two
// tenants whose flows collide would serve each other's matches, and one
// tenant's generation change would stale every tenant's entries. A
// Partitioned hands each tenant its own Cache — its own sets, recency
// clock and epoch — so epoch-tagged invalidation is scoped to exactly the
// tenant whose rules changed, and a hostile tenant thrashing its partition
// cannot evict a byte of a well-behaved neighbour's working set.
//
// Partition count is bounded (maxTenants): when a new tenant arrives at
// the bound, the least recently *served* tenant's partition is
// reclaimed — flow caches are pure accelerators, so reclaiming one
// costs the victim cold misses, never correctness. Like Cache itself, a
// Partitioned is single-goroutine (one per shard).
package flowcache

import "repro/internal/rules"

// part is one tenant's cache plus its recency stamp. lastUse is a logical
// clock bumped on every Partition call, not wall time — cheap, and
// monotonic regardless of timer resolution.
type part struct {
	cache   *Cache
	lastUse uint64
}

// Partitioned is a bounded set of per-tenant flow caches.
type Partitioned struct {
	perTenant  int // capacity (flows) of each tenant's cache
	maxTenants int
	parts      map[uint32]*part
	clock      uint64
	evictions  uint64
	// Counts of partitions no longer resident: Stats never falls.
	goneHits, goneMisses uint64

	// OnEvict, when non-nil, is called with the tenant ID whose partition
	// was reclaimed to make room (not on explicit Drop). The engine uses
	// it to surface tenant-evicted events without flowcache importing obs.
	OnEvict func(tenant uint32)
}

// NewPartitioned returns a partition set giving each of up to maxTenants
// tenants a perTenant-flow cache. Both bounds must be positive;
// perTenant is validated against the same limits as New.
func NewPartitioned(perTenant, maxTenants int) (*Partitioned, error) {
	if perTenant < 1 || int64(perTenant) > int64(MaxCapacity) {
		return nil, &CapacityError{Capacity: perTenant}
	}
	if maxTenants < 1 {
		return nil, &CapacityError{Capacity: maxTenants}
	}
	return &Partitioned{
		perTenant:  perTenant,
		maxTenants: maxTenants,
		parts:      make(map[uint32]*part, maxTenants),
	}, nil
}

// Partition returns the tenant's cache, creating it over slow on first
// use (or after an eviction). The call bumps the tenant's recency, so
// calling it once per batch keeps partition eviction aligned with which
// tenants are actually serving traffic. The returned cache is only valid
// until the next Partition call that might evict — use it for one batch,
// re-resolve for the next.
//
// The steady state (tenant already resident) is one map lookup and a
// stamp: 0 allocs, safe for the per-batch hot path.
func (p *Partitioned) Partition(tenant uint32, slow rules.Classifier) (*Cache, error) {
	p.clock++
	if pt, ok := p.parts[tenant]; ok {
		pt.lastUse = p.clock
		return pt.cache, nil
	}
	if len(p.parts) >= p.maxTenants {
		p.evictOldest()
	}
	c, err := New(slow, p.perTenant)
	if err != nil {
		return nil, err
	}
	p.parts[tenant] = &part{cache: c, lastUse: p.clock}
	return c, nil
}

// evictOldest reclaims the least recently served tenant's partition.
func (p *Partitioned) evictOldest() {
	var victim uint32
	oldest := ^uint64(0)
	for id, pt := range p.parts {
		if pt.lastUse < oldest {
			victim, oldest = id, pt.lastUse
		}
	}
	p.Drop(victim)
	p.evictions++
	if p.OnEvict != nil {
		p.OnEvict(victim)
	}
}

// Drop discards the tenant's partition (no OnEvict callback). Call it
// when the tenant is removed from the registry, or when its lane was
// rebound to a different manager and the slow-path pointer inside the
// cached partition would otherwise go stale.
func (p *Partitioned) Drop(tenant uint32) {
	if pt, ok := p.parts[tenant]; ok {
		p.goneHits += pt.cache.hits
		p.goneMisses += pt.cache.misses
		delete(p.parts, tenant)
	}
}

// Tenants returns the number of resident partitions.
func (p *Partitioned) Tenants() int { return len(p.parts) }

// Evictions returns how many partitions were reclaimed to make room.
func (p *Partitioned) Evictions() uint64 { return p.evictions }

// Stats returns hits and misses summed over every partition this set has
// ever held, resident or since evicted or dropped.
func (p *Partitioned) Stats() (hits, misses uint64) {
	hits, misses = p.goneHits, p.goneMisses
	for _, pt := range p.parts {
		hits += pt.cache.hits
		misses += pt.cache.misses
	}
	return hits, misses
}
