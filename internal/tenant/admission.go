package tenant

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/buildgov"
	"repro/internal/obs"
)

// Default global admission bounds. Per-tenant budgets bound what one
// build may cost; these bound how many of those costs the process pays
// at once.
const (
	// DefaultMaxConcurrentBuilds is how many governed builds may run
	// simultaneously across all tenants.
	DefaultMaxConcurrentBuilds = 2
	// DefaultMaxBuildHeapBytes caps the aggregate reserved build heap.
	DefaultMaxBuildHeapBytes = int64(512) << 20
	// DefaultBuildHeapReserve is the per-build heap charge assumed for
	// tenants whose budget does not declare MaxHeapBytes.
	DefaultBuildHeapReserve = int64(64) << 20
)

// StarvedError reports a build that waited on the global admission
// budget until its context expired. It unwraps to
// buildgov.ErrBudgetExceeded on purpose: the ladder treats admission
// starvation exactly like a tripped per-build budget — it counts as a
// budget trip, the rung's breaker records the failure, and the ladder
// falls through toward its final rung, which is admission-exempt so the
// tenant always lands somewhere servable.
type StarvedError struct {
	// Tenant is the starved tenant.
	Tenant ID
	// Builds and HeapBytes snapshot the admission state at expiry.
	Builds    int
	HeapBytes int64
}

func (e *StarvedError) Error() string {
	return fmt.Sprintf("tenant: %v build starved by global admission budget (%d builds, %d heap bytes in flight): %v",
		e.Tenant, e.Builds, e.HeapBytes, buildgov.ErrBudgetExceeded)
}

func (e *StarvedError) Unwrap() error { return buildgov.ErrBudgetExceeded }

// waiter is one queued Acquire.
type waiter struct {
	ready   chan struct{}
	heap    int64
	granted bool
}

// Admission is the global build-admission governor: at most maxBuilds
// concurrent governed builds holding at most maxHeap reserved bytes,
// with per-tenant FIFO queues drained round-robin — the fair-share
// queueing that stops one tenant's rebuild storm from monopolizing the
// build slots that every other tenant's compactions and ladder repairs
// need.
type Admission struct {
	maxBuilds int
	maxHeap   int64
	events    *obs.Ring

	mu       sync.Mutex
	inflight int
	heap     int64
	// queues holds each tenant's waiting Acquires in arrival order;
	// rotor holds exactly the tenants with non-empty queues, in grant
	// rotation order (grant from the front, re-append while non-empty).
	queues map[ID][]*waiter
	rotor  []ID

	admitted obs.Counter
	waited   obs.Counter
	starved  obs.Counter
}

// NewAdmission returns a governor admitting up to maxBuilds concurrent
// builds and maxHeapBytes aggregate reserved heap (<= 0: default for
// maxBuilds, unlimited heap for maxHeapBytes). Budget-starved waits are
// recorded on events as budget-starved.
func NewAdmission(maxBuilds int, maxHeapBytes int64, events *obs.Ring) *Admission {
	if maxBuilds <= 0 {
		maxBuilds = DefaultMaxConcurrentBuilds
	}
	return &Admission{
		maxBuilds: maxBuilds,
		maxHeap:   maxHeapBytes,
		events:    events,
		queues:    make(map[ID][]*waiter),
	}
}

// fitsLocked reports whether a build charging heap bytes can start now.
// An idle governor always admits — a single build whose declared charge
// exceeds maxHeap must still make progress, the same always-attempt
// guarantee the ladder gives its final rung.
func (a *Admission) fitsLocked(heap int64) bool {
	if a.inflight == 0 {
		return true
	}
	if a.inflight >= a.maxBuilds {
		return false
	}
	return a.maxHeap <= 0 || a.heap+heap <= a.maxHeap
}

// Acquire blocks until the build is admitted or ctx expires. The fast
// path (capacity free, nobody queued) is two mutex operations. Passing
// heap <= 0 charges nothing against the heap bound. A context expiry
// returns a *StarvedError (a budget trip to the ladder) and records a
// budget-starved event.
func (a *Admission) Acquire(ctx context.Context, id ID, heap int64) error {
	if heap < 0 {
		heap = 0
	}
	a.mu.Lock()
	// No queue-jumping: capacity goes to the rotor first.
	if len(a.rotor) == 0 && a.fitsLocked(heap) {
		a.inflight++
		a.heap += heap
		a.mu.Unlock()
		a.admitted.Inc()
		return nil
	}
	w := &waiter{ready: make(chan struct{}), heap: heap}
	a.queues[id] = append(a.queues[id], w)
	if len(a.queues[id]) == 1 {
		a.rotor = append(a.rotor, id)
	}
	a.mu.Unlock()
	a.waited.Inc()

	select {
	case <-w.ready:
		a.admitted.Inc()
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the expiry; the slot is ours. Keep it — the
			// builder's own context check will abort the build promptly,
			// and Release will still balance the books.
			a.mu.Unlock()
			a.admitted.Inc()
			return nil
		}
		a.removeLocked(id, w)
		builds, heapNow := a.inflight, a.heap
		a.mu.Unlock()
		a.starved.Inc()
		a.events.Recordf(obs.EventBudgetStarved,
			"tenant %v build starved: %d builds, %d heap bytes in flight", id, builds, heapNow)
		return &StarvedError{Tenant: id, Builds: builds, HeapBytes: heapNow}
	}
}

// Release returns a build's admission (same heap as its Acquire) and
// grants as many queued waiters as now fit, round-robin across tenants.
func (a *Admission) Release(heap int64) {
	if heap < 0 {
		heap = 0
	}
	a.mu.Lock()
	a.inflight--
	a.heap -= heap
	a.pumpLocked()
	a.mu.Unlock()
}

// pumpLocked grants from the rotor while capacity lasts: front tenant's
// oldest waiter, then the tenant rotates to the back — each tenant gets
// one build per rotation no matter how deep its queue is.
func (a *Admission) pumpLocked() {
	for len(a.rotor) > 0 {
		tid := a.rotor[0]
		q := a.queues[tid]
		w := q[0]
		if !a.fitsLocked(w.heap) {
			return
		}
		if len(q) == 1 {
			delete(a.queues, tid)
			a.rotor = a.rotor[1:]
		} else {
			a.queues[tid] = q[1:]
			a.rotor = append(a.rotor[1:], tid)
		}
		w.granted = true
		a.inflight++
		a.heap += w.heap
		close(w.ready)
	}
}

// removeLocked unqueues an expired waiter.
func (a *Admission) removeLocked(id ID, w *waiter) {
	q := a.queues[id]
	for i := range q {
		if q[i] == w {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(a.queues, id)
		for i := range a.rotor {
			if a.rotor[i] == id {
				a.rotor = append(a.rotor[:i], a.rotor[i+1:]...)
				break
			}
		}
	} else {
		a.queues[id] = q
	}
}

// Inflight returns the admitted build count and their reserved heap.
func (a *Admission) Inflight() (builds int, heapBytes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, a.heap
}

// Waiting returns how many Acquires are currently queued.
func (a *Admission) Waiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// Starved returns how many Acquires expired while queued.
func (a *Admission) Starved() uint64 { return a.starved.Load() }
