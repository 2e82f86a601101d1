package engine

import (
	"errors"
	"runtime/debug"
	"sync"

	"repro/internal/rules"
)

// batch is the one object a packet group lives in from dispatch to
// emission: the dispatcher fills seqs and hs, a lane writes matches (or
// fails the whole batch through err), the sequencer reads all of it in
// place and returns the batch to the pool. Nothing is copied between
// stages — the channels carry the pointer. A lane's packets are scattered
// through the arrival order, hence a sequence number per packet.
type batch struct {
	seqs    []uint64
	hs      []rules.Header
	matches []int // len cap(hs); [:len(hs)] is valid after classification
	// err fails every packet of the batch without classifying it: ErrShed,
	// ErrUnknownTenant, or the context's error.
	err error
	// errs is nil unless the batched lookup panicked and the batch was
	// re-run packet by packet; then errs[i] is packet i's *PanicError or nil.
	errs []error
	// tenant and si attribute the batch: every batch is single-tenant
	// (tenant 0 on the single-table path) and bound for one shard.
	tenant uint32
	si     int
	// left counts the packets the sequencer has not emitted yet.
	left int
}

// result is packet i as the emit callback sees it.
func (b *batch) result(i int) Result {
	if b.err == nil && b.errs == nil {
		return Result{Seq: b.seqs[i], Header: b.hs[i], Match: b.matches[i]}
	}
	r := Result{Seq: b.seqs[i], Header: b.hs[i], Match: -1, Err: b.err}
	if b.err == nil {
		if r.Err = b.errs[i]; r.Err == nil {
			r.Match = b.matches[i]
		}
	}
	return r
}

// counts is the batch's tally: its size offered, and its outcomes. It is
// the engine's one decision of what happened to a packet; Stats, the
// per-tenant counts and the per-shard outcome counters all add it up.
func (b *batch) counts() TenantCounts {
	n := uint64(len(b.hs))
	switch {
	case b.err == nil:
		var panicked uint64
		for _, err := range b.errs {
			if err != nil {
				panicked++
			}
		}
		return TenantCounts{Offered: n, Classified: n - panicked, Panicked: panicked}
	case errors.Is(b.err, ErrShed):
		return TenantCounts{Offered: n, Shed: n}
	default:
		return TenantCounts{Offered: n, Canceled: n}
	}
}

// batchPool recycles one run's batches between the sequencer (put) and the
// dispatcher (get). A plain locked stack, not a sync.Pool: most recently
// emitted — still cached — batches go out first, nothing is dropped behind
// the run's back, and a run allocates no more batches than it ever has in
// flight (rounded up to a slab).
type batchPool struct {
	mu   sync.Mutex
	free []*batch
	size int
}

// slabPackets is how many packets' worth of batches the pool allocates at
// once when it runs dry: four allocations per slab instead of four per
// batch, and a short run still takes only one slab.
const slabPackets = 1024

func newBatchPool(size int) *batchPool { return &batchPool{size: size} }

func (p *batchPool) get() *batch {
	p.mu.Lock()
	if len(p.free) == 0 {
		p.refill()
	}
	n := len(p.free)
	b := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return b
}

// refill carves a slab of batches out of one array per field.
func (p *batchPool) refill() {
	n := max(1, slabPackets/p.size)
	slab := make([]batch, n)
	seqs := make([]uint64, n*p.size)
	hs := make([]rules.Header, n*p.size)
	matches := make([]int, n*p.size)
	for i := range slab {
		lo, hi := i*p.size, (i+1)*p.size
		slab[i] = batch{seqs: seqs[lo:lo:hi], hs: hs[lo:lo:hi], matches: matches[lo:hi:hi]}
		p.free = append(p.free, &slab[i])
	}
}

// put empties b — a contained panic's per-packet errors and a batch-level
// error must not survive the trip — and shelves it.
func (p *batchPool) put(b *batch) {
	b.seqs, b.hs, b.err, b.errs = b.seqs[:0], b.hs[:0], nil, nil
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// classifyBatch writes b.matches, and b.errs for packets that failed with
// contained panics. The rules.BatchClassifier fast path classifies the
// whole batch in one call and writes nothing else; if that call panics, the
// batch is re-run packet by packet so the panic is attributed to exactly
// the packet(s) that triggered it and every innocent packet still gets its
// answer — panic isolation at batch granularity never costs more than the
// per-packet path would have.
func classifyBatch(cl Classifier, bc rules.BatchClassifier, b *batch) {
	out := b.matches[:len(b.hs)]
	if bc != nil && classifyBatchContained(bc, b.hs, out) {
		return
	}
	for i, h := range b.hs {
		m, err := classifyOne(cl, h)
		out[i] = m
		if err != nil {
			if b.errs == nil {
				b.errs = make([]error, len(b.hs))
			}
			b.errs[i] = err
		}
	}
}

// classifyBatchContained runs the batched lookup with panic containment,
// reporting whether it completed. A false return means some packet in the
// batch panicked the classifier; the caller falls back to the per-packet
// path for attribution.
func classifyBatchContained(bc rules.BatchClassifier, hs []rules.Header, out []int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	bc.ClassifyBatch(hs, out)
	return true
}

// classifyOne runs one lookup with panic containment: a panicking
// classifier costs its packet, not the lane.
func classifyOne(cl Classifier, h rules.Header) (match int, err error) {
	defer func() {
		if p := recover(); p != nil {
			match, err = -1, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return cl.Classify(h), nil
}
