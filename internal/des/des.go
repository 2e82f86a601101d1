// Package des is a minimal deterministic discrete-event simulation kernel:
// a virtual clock and a time-ordered event queue with stable FIFO ordering
// for simultaneous events. The IXP2850 model (internal/npsim) runs on it.
package des

// Time is virtual time in simulation ticks (ME clock cycles for npsim).
type Time uint64

// Event is a callback scheduled at a point in virtual time.
type Event func(now Time)

type item struct {
	at  Time
	seq uint64
	fn  Event
}

// less orders events by time, then by scheduling order. The order is
// total (seq is unique), so the dispatch sequence does not depend on how
// the heap is laid out.
func less(a, b *item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now   Time
	seq   uint64
	queue []item // binary min-heap under less
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug, and silently reordering events would destroy
// determinism.
func (s *Sim) At(t Time, fn Event) {
	if t < s.now {
		panic("des: scheduling into the past")
	}
	q := append(s.queue, item{at: t, seq: s.seq, fn: fn})
	s.queue = q
	s.seq++
	for i := len(q) - 1; i > 0; { // sift up
		p := (i - 1) / 2
		if !less(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// After schedules fn delay ticks from now.
func (s *Sim) After(delay Time, fn Event) {
	s.At(s.now+delay, fn)
}

// Step dispatches the next event; it reports false when the queue is empty.
func (s *Sim) Step() bool {
	q := s.queue
	n := len(q) - 1
	if n < 0 {
		return false
	}
	it := q[0]
	q[0], q[n] = q[n], item{} // the vacated slot drops its callback
	s.queue = q[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 { // sift down
		if c+1 < n && less(&q[c+1], &q[c]) {
			c++
		}
		if !less(&q[c], &q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
	}
	s.now = it.at
	it.fn(s.now)
	return true
}

// RunUntil dispatches events until the queue is empty or the next event
// lies beyond the deadline; the clock is left at min(deadline, last event).
func (s *Sim) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run dispatches events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }
