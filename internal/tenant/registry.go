package tenant

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/update"
)

// Config configures one tenant.
type Config struct {
	// Ladder names the tenant's degradation ladder rungs, best first
	// (update.LadderFromNames). Empty means update.DefaultLadder.
	Ladder []string
	// Budget governs each of the tenant's builds (nil: bounded only by
	// Update.BuildTimeout). This is the per-tenant half of build
	// isolation: a WildcardStorm tenant trips its own budget, walks its
	// own ladder down and serves linear, while every other tenant's
	// expcuts keeps building under its own untouched budget.
	Budget *buildgov.Budget
	// Update configures the tenant's update.Manager (validation, build
	// deadline and compaction knobs). Update.Events defaults to the
	// registry's ring.
	Update update.Config
	// ShedOnOverload picks the tenant's engine overload policy: shed
	// (drop with ErrShed results when the tenant's queue slots are full)
	// or block the dispatcher. Hostile or best-effort tenants should
	// shed; blocking is head-of-line blocking for everyone behind them.
	ShedOnOverload bool
}

// Runtime is one tenant's serving state: its update.Manager (embedded —
// Apply, ApplyDelta, Rollback, Health, Classify and friends are the
// tenant's own) plus the engine lane contract and per-tenant serving
// counters. A *Runtime is what Registry.Lane hands the engine.
type Runtime struct {
	*update.Manager
	id   ID
	shed bool

	offered    obs.Counter
	classified obs.Counter
	shedded    obs.Counter
	canceled   obs.Counter
	panicked   obs.Counter
}

// ID returns the tenant's ID.
func (r *Runtime) ID() ID { return r.id }

// ShedOnOverload implements engine.TenantLane.
func (r *Runtime) ShedOnOverload() bool { return r.shed }

// Counts returns the tenant's lifetime serving counters (absorbed from
// engine.TenantStats by Registry.Absorb).
func (r *Runtime) Counts() engine.TenantCounts {
	return engine.TenantCounts{
		Offered:    r.offered.Load(),
		Classified: r.classified.Load(),
		Shed:       r.shedded.Load(),
		Canceled:   r.canceled.Load(),
		Panicked:   r.panicked.Load(),
	}
}

// Options configures a Registry.
type Options struct {
	// Events is the flight recorder for tenant lifecycle and admission
	// events (tenant-evicted, budget-starved); also the default
	// update.Config.Events for tenants that do not bring their own.
	Events *obs.Ring
}

// Registry maps tenant IDs to runtimes. Lookups on the packet path
// (Lane) read a copy-on-write snapshot map through one atomic load —
// no lock, no allocation — while Add/Remove build a fresh map under a
// mutex and publish it atomically, so registering tenant A never stalls
// a single packet of tenant B.
type Registry struct {
	adm    *Admission
	events *obs.Ring

	mu   sync.Mutex // serializes Add/Remove (writers only)
	live atomic.Pointer[map[uint32]*Runtime]

	refused obs.Counter // packets offered for unknown tenants
}

// NewRegistry returns an empty registry with its admission governor,
// bounded by DefaultMaxConcurrentBuilds and DefaultMaxBuildHeapBytes.
func NewRegistry(opts Options) *Registry {
	r := &Registry{
		adm:    NewAdmission(DefaultMaxConcurrentBuilds, DefaultMaxBuildHeapBytes, opts.Events),
		events: opts.Events,
	}
	empty := make(map[uint32]*Runtime)
	r.live.Store(&empty)
	return r
}

// Admission exposes the registry's global build governor.
func (r *Registry) Admission() *Admission { return r.adm }

// Add registers a tenant over its initial rule set, building the first
// generation through the tenant's ladder (under the tenant's budget and
// the global admission governor — a burst of Adds serializes through
// the same fair-share queue as every other build). Duplicate IDs are
// rejected.
func (r *Registry) Add(id ID, rs *rules.RuleSet, cfg Config) (*Runtime, error) {
	if rt := r.Get(id); rt != nil {
		return nil, fmt.Errorf("tenant: %v already registered", id)
	}
	// Each build is charged against the global heap budget at what the
	// tenant's own budget allows it.
	charge := DefaultBuildHeapReserve
	if cfg.Budget != nil && cfg.Budget.MaxHeapBytes > 0 {
		charge = cfg.Budget.MaxHeapBytes
	}
	rungs := update.DefaultLadder(cfg.Budget)
	if len(cfg.Ladder) > 0 {
		var err error
		if rungs, err = update.LadderFromNames(cfg.Ladder, cfg.Budget); err != nil {
			return nil, fmt.Errorf("tenant: %v ladder: %w", id, err)
		}
	}
	// Gate every rung but the last behind global admission. The final
	// rung is exempt for the same reason the ladder always attempts it:
	// a tenant starved of build capacity must still land on a servable
	// generation, and the final rung (linear in the default ladder) is
	// the one whose build cannot meaningfully cost heap.
	for i := 0; i < len(rungs)-1; i++ {
		inner := rungs[i].Build
		rungs[i].Build = func(ctx context.Context, rs *rules.RuleSet) (update.Classifier, error) {
			if err := r.adm.Acquire(ctx, id, charge); err != nil {
				return nil, err
			}
			defer r.adm.Release(charge)
			return inner(ctx, rs)
		}
	}
	ucfg := cfg.Update
	if ucfg.Events == nil {
		ucfg.Events = r.events
	}
	mgr, err := update.NewManagerLadder(rs, rungs, ucfg)
	if err != nil {
		return nil, fmt.Errorf("tenant: %v initial build: %w", id, err)
	}
	rt := &Runtime{Manager: mgr, id: id, shed: cfg.ShedOnOverload}

	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.live.Load()
	if _, dup := cur[uint32(id)]; dup {
		return nil, fmt.Errorf("tenant: %v already registered", id)
	}
	next := make(map[uint32]*Runtime, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[uint32(id)] = rt
	r.live.Store(&next)
	return rt, nil
}

// Remove unregisters a tenant (a tenant-evicted event). In-flight
// batches already holding the runtime finish against it; new batches
// resolve to nil and are refused as unknown.
func (r *Registry) Remove(id ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.live.Load()
	if _, ok := cur[uint32(id)]; !ok {
		return false
	}
	next := make(map[uint32]*Runtime, len(cur)-1)
	for k, v := range cur {
		if k != uint32(id) {
			next[k] = v
		}
	}
	r.live.Store(&next)
	r.events.Recordf(obs.EventTenantEvicted, "tenant %v removed from registry", id)
	return true
}

// Get returns the tenant's runtime, or nil.
func (r *Registry) Get(id ID) *Runtime {
	return (*r.live.Load())[uint32(id)]
}

// Lane implements engine.TenantResolver: one atomic load, one map read,
// 0 allocs. Unknown tenants return an untyped nil.
func (r *Registry) Lane(id uint32) engine.TenantLane {
	rt := (*r.live.Load())[id]
	if rt == nil {
		return nil
	}
	return rt
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int { return len(*r.live.Load()) }

// IDs returns the registered tenant IDs, ascending.
func (r *Registry) IDs() []ID {
	m := *r.live.Load()
	ids := make([]ID, 0, len(m))
	for k := range m {
		ids = append(ids, ID(k))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Absorb folds a run's per-tenant accounting into the runtimes' lifetime
// counters (the tenant-labeled series the registry collector exports).
// Counts for tenants no longer registered land on the registry's
// refused counter so nothing is silently dropped.
func (r *Registry) Absorb(ts engine.TenantStats) {
	m := *r.live.Load()
	for tid, c := range ts.Tenants {
		rt := m[tid]
		if rt == nil {
			r.refused.Add(c.Offered)
			continue
		}
		rt.offered.Add(c.Offered)
		rt.classified.Add(c.Classified)
		rt.shedded.Add(c.Shed)
		rt.canceled.Add(c.Canceled)
		rt.panicked.Add(c.Panicked)
	}
}
