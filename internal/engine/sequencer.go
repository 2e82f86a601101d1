package engine

import (
	"fmt"

	"repro/internal/obs"
)

// sequencer is the emit stage of every serve loop: batches arrive from the
// lanes in any order, and their packets leave through emit — in arrival
// order of sequence numbers when ordered, batch by batch otherwise. It is
// the NP's sequence-numbered transmit stage fed by scratch rings that carry
// packet handles, not packets: the ring holds one 8-byte handle per
// sequence number in the live window (which batch, which index; 0 =
// absent), the batch keeps the header, match and error where the shard
// wrote them, and an engine.Result exists only on the stack of the emit
// call. A batch goes back to its pool when its last packet has left.
//
// A sequence number s lives at ring[s & (len(ring)-1)]. Emission is
// strictly ascending, so the live window is [next, next+len(ring)) and the
// masked index is collision-free while the window fits; the ring doubles,
// re-indexing its occupants, when a batch reaches beyond it (the dispatcher
// runs up to QueueDepth batches per lane ahead of the slowest shard) and
// never shrinks, so the steady state allocates nothing. Batches may
// interleave their sequence ranges and overtake one another freely: two
// tenants' batches on one shard overlap, a shed batch passes the queued
// ones, shards finish out of order.
//
// All methods run on the single emission goroutine.
type sequencer struct {
	st      *Stats
	emit    func(Result)
	pool    *batchPool
	hist    *obs.Hist // occupancy after each arrival's drain; nil-safe
	ordered bool

	ring []uint64 // handle per in-window sequence number, 0 = absent
	live []*batch // slot -> batch with packets still in the ring
	free []uint32 // unused slots of live
	next uint64   // ordered: lowest sequence number not yet emitted; otherwise the one being emitted
	held int      // packets in the ring
	err  error    // the contained emit panic, after which emit is never called again
}

// newSequencer sizes the ring for two batches, so two lanes finishing out
// of order never grow it.
func newSequencer(cfg *Config, st *Stats, pool *batchPool, emit func(Result)) *sequencer {
	capacity := 1
	for capacity < 2*cfg.BatchSize {
		capacity <<= 1
	}
	return &sequencer{st: st, emit: emit, pool: pool, hist: cfg.Metrics.reorderHeldHist(),
		ordered: cfg.PreserveOrder, ring: make([]uint64, capacity)}
}

// accept takes ownership of one arrived batch: tallies its outcomes into
// Stats (they are final on arrival) and returns the batch's counts for the
// caller's per-tenant tally, emits whatever the batch makes emittable, and recycles every
// batch whose last packet left. Stats.MaxReorder is defined here and only
// here: the packets still held after the drain that follows an arrival, so
// a run that completes in order reports 0.
func (q *sequencer) accept(b *batch) TenantCounts {
	c := b.counts()
	q.st.Packets += int(c.Classified)
	q.st.Shed += int(c.Shed)
	q.st.Canceled += int(c.Canceled)
	q.st.Panics += int(c.Panicked)
	b.left = len(b.seqs)
	if b.left == 0 {
		q.pool.put(b)
		return c
	}
	if !q.ordered {
		for !q.pass(b) {
		}
		return c
	}
	slot := uint32(len(q.live))
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.live[slot] = b
	} else {
		q.live = append(q.live, b)
	}
	h := uint64(slot+1) << 32
	for i, s := range b.seqs {
		for s-q.next >= uint64(len(q.ring)) {
			q.grow()
		}
		q.ring[s&uint64(len(q.ring)-1)] = h | uint64(i)
	}
	q.held += len(b.seqs)
	for !q.drain() {
	}
	if q.held > q.st.MaxReorder {
		q.st.MaxReorder = q.held
	}
	q.hist.Observe(uint64(q.held))
	return c
}

// drain emits from next upward until the first gap. State advances only
// after emit returns, so when emit panics the one recover below leaves the
// packet in place, drain reports false, and the caller's retry finishes the
// job against the no-op emit — containment costs one defer per arrival, not
// one per packet.
func (q *sequencer) drain() (done bool) {
	defer q.contain()
	mask := uint64(len(q.ring) - 1)
	for {
		k := q.next & mask
		h := q.ring[k]
		if h == 0 {
			return true
		}
		slot := uint32(h>>32) - 1
		b := q.live[slot]
		q.emit(b.result(int(uint32(h))))
		q.ring[k] = 0
		q.next++
		q.held--
		if b.left--; b.left == 0 {
			q.live[slot] = nil
			q.free = append(q.free, slot)
			q.pool.put(b)
		}
	}
}

// pass is the unordered twin of drain: the batch's packets in batch order.
func (q *sequencer) pass(b *batch) (done bool) {
	defer q.contain()
	for n := len(b.seqs); b.left > 0; b.left-- {
		q.next = b.seqs[n-b.left]
		q.emit(b.result(n - b.left))
	}
	q.pool.put(b)
	return true
}

// contain recovers an emit panic: it is reported once, and results keep
// draining into a no-op so no lane blocks and no batch is stranded. The
// no-op cannot panic, so a second panic is the sequencer's own and is
// re-raised rather than retried forever.
func (q *sequencer) contain() {
	p := recover()
	if p == nil {
		return
	}
	if q.err != nil {
		panic(p)
	}
	q.st.EmitPanics++
	q.err = fmt.Errorf("engine: emit panicked on packet %d: %v", q.next, p)
	q.emit = func(Result) {}
}

// grow doubles the ring. An occupant's slot is a function of the mask, and
// its sequence number is read back through its handle.
func (q *sequencer) grow() {
	old := q.ring
	q.ring = make([]uint64, 2*len(old))
	mask := uint64(len(q.ring) - 1)
	for _, h := range old {
		if h != 0 {
			q.ring[q.live[uint32(h>>32)-1].seqs[uint32(h)]&mask] = h
		}
	}
}

// finish reports how the emit stage ended once the last batch has been
// accepted: the emit panic if there was one, or packets that never became
// emittable (a gap in the sequence space — a dispatcher bug).
func (q *sequencer) finish() error {
	if q.err == nil && q.held != 0 {
		return fmt.Errorf("engine: %d results stranded in the sequencer", q.held)
	}
	return q.err
}
