package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the runtime. The set is open — Record accepts
// any string — but these are the hooks the serving and build stacks emit.
const (
	// EventSwap: update.Manager published a new generation.
	EventSwap = "swap"
	// EventRollback: update.Manager reinstated the previous generation.
	EventRollback = "rollback"
	// EventRungChange: a rebuild landed on a different ladder rung than
	// the generation it replaced.
	EventRungChange = "rung-change"
	// EventBreakerOpen / EventBreakerHalfOpen / EventBreakerClose: a
	// ladder rung's circuit breaker transitioned.
	EventBreakerOpen     = "breaker-open"
	EventBreakerHalfOpen = "breaker-half-open"
	EventBreakerClose    = "breaker-close"
	// EventBudgetTrip: a governed build crossed a buildgov budget limit.
	EventBudgetTrip = "budget-trip"
	// EventCacheInvalidate: a shard invalidated its private flow cache on
	// a generation change.
	EventCacheInvalidate = "cache-invalidate"
	// EventCompact: update.Manager folded its delta layer into a fresh
	// tree build and published the result.
	EventCompact = "compact"
	// EventCompactAbort: a compaction was discarded — its build failed,
	// or the base generation changed underneath it.
	EventCompactAbort = "compact-abort"
	// EventTenantEvicted: a tenant was removed from a registry, or a
	// shard reclaimed its lane and flow cache for a more recently active
	// tenant.
	EventTenantEvicted = "tenant-evicted"
	// EventBudgetStarved: a tenant's build waited on the global admission
	// budget until its context expired — the fair share never freed up.
	EventBudgetStarved = "budget-starved"
)

// Event is one flight-recorder entry.
type Event struct {
	// Seq is the global record sequence number (monotonic per ring).
	Seq uint64 `json:"seq"`
	// At is the wall-clock record time.
	At time.Time `json:"at"`
	// Kind is the event kind (see the Event* constants).
	Kind string `json:"kind"`
	// Detail is a human-readable one-liner.
	Detail string `json:"detail,omitempty"`
}

// Ring is a lock-free, fixed-capacity event ring: the flight recorder.
// Record claims a slot with one atomic add and publishes the event with
// one atomic pointer store — no locks anywhere, so it is safe to call
// from any goroutine, including serving loops (events are rare by
// design: swaps, rollbacks, breaker transitions, budget trips, cache
// invalidations — never per packet). When the ring wraps, the oldest
// events are overwritten; Snapshot returns the retained window.
type Ring struct {
	slots []atomic.Pointer[Event]
	next  atomic.Uint64
	// counts tracks lifetime per-kind totals (not bounded by the ring
	// window) for the pc_events_total exposition.
	counts sync.Map // string -> *Counter
}

// DefaultRingSize is the flight-recorder window the CLIs allocate.
const DefaultRingSize = 1024

// NewRing returns a ring retaining the last n events (n < 1 uses
// DefaultRingSize).
func NewRing(n int) *Ring {
	if n < 1 {
		n = DefaultRingSize
	}
	return &Ring{slots: make([]atomic.Pointer[Event], n)}
}

// Record appends an event. Nil-safe: a nil ring drops it, so call sites
// need no enabled-checks.
func (r *Ring) Record(kind, detail string) {
	if r == nil {
		return
	}
	e := &Event{At: time.Now(), Kind: kind, Detail: detail}
	e.Seq = r.next.Add(1) - 1
	r.slots[e.Seq%uint64(len(r.slots))].Store(e)
	c, ok := r.counts.Load(kind)
	if !ok {
		c, _ = r.counts.LoadOrStore(kind, &Counter{})
	}
	c.(*Counter).Inc()
}

// Recordf is Record with a formatted detail.
func (r *Ring) Recordf(kind, format string, args ...any) {
	if r == nil {
		return
	}
	r.Record(kind, fmt.Sprintf(format, args...))
}

// Len is the number of events recorded over the ring's lifetime (not
// bounded by the window).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the retained events, oldest first. Under concurrent
// recording the snapshot is a consistent set of fully published events
// (each slot is one atomic pointer), not an atomic cut of the whole
// window.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// KindCount is one kind's lifetime event total.
type KindCount struct {
	Kind  string
	Count uint64
}

// KindCounts returns lifetime totals per kind, sorted by kind.
func (r *Ring) KindCounts() []KindCount {
	if r == nil {
		return nil
	}
	var out []KindCount
	r.counts.Range(func(k, v any) bool {
		out = append(out, KindCount{Kind: k.(string), Count: v.(*Counter).Load()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// WriteJSON dumps the retained window as a JSON array — the flight
// recorder read-out the CLIs emit on shutdown or SIGQUIT.
func (r *Ring) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
