package expcuts

import (
	"sync"

	"repro/internal/rules"
)

// batchScratch is the per-call scratch of ClassifyBatch, recycled through
// a pool so the steady-state batch path allocates nothing. Only the packed
// keys (hi and lo word) need scratch space: the per-packet tree position is
// carried in the caller's out slice itself (a ref fits an int), so no second
// array is touched in the hot loop.
type batchScratch struct {
	keys [][2]uint64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxPooledBatch caps how large a scratch buffer the batch pools retain, in
// packets. Scratch grown past this by a one-off jumbo batch is dropped on
// Put instead of pinned in the pool forever (the engine's own batches are
// bounded well below this; only direct callers can exceed it).
const maxPooledBatch = 4096

// release returns the scratch to the pool unless a jumbo batch grew it past
// the retention cap.
func (sc *batchScratch) release() {
	if cap(sc.keys) > maxPooledBatch {
		sc.keys = nil
	}
	batchPool.Put(sc)
}

// ClassifyBatch classifies hs[i] into out[i] (the rules.BatchClassifier
// contract; out must be at least as long as hs). It computes every packet's
// 104-bit key up front, then walks the compressed arena level-synchronously:
// all packets make their first node visit before any packet makes its
// second, so a node line and CPA refs that several packets traverse
// are hot in cache when the second packet arrives instead of evicted by an
// unrelated full-depth walk. A round is one visit, not one tree level —
// elided levels are skipped — but every visit consumes at least w key
// bits, so every packet finishes in at most ⌈104/w⌉ rounds: the batched
// analogue of the paper's explicit-depth guarantee.
//
// The steady state performs zero heap allocations; answers are identical
// to per-packet Classify.
func (t *Tree) ClassifyBatch(hs []rules.Header, out []int) {
	n := len(hs)
	out = out[:n]
	if n == 0 {
		return
	}
	if t.ar.root < 0 {
		// Degenerate tree: the root resolves to a leaf.
		m := decodeRef(t.ar.root)
		for i := range out {
			out[i] = m
		}
		return
	}
	sc := batchPool.Get().(*batchScratch)
	keys := sc.keys
	if cap(keys) < n {
		keys = make([][2]uint64, n)
	}
	keys = keys[:n]
	for i, h := range hs {
		keys[i][0], keys[i][1] = h.Key().Words()
	}

	st := t.step()
	nodes, cpa := t.ar.nodes, t.ar.cpa
	for i := range out {
		out[i] = int(t.ar.root)
	}
	// Finished packets are skipped, not compacted out of the scan: at the
	// engine's batch of 64 an index list measured slower than this branch.
	for active := n; active > 0; {
		for i, o := range out {
			if o < 0 {
				continue
			}
			nd := &nodes[o]
			r := cpa[st.cpaIndex(nd, keys[i][nd.pos>>6&1])]
			out[i] = int(r)
			if r < 0 {
				active--
			}
		}
	}
	for i := range out {
		out[i] = decodeRef(ref(out[i]))
	}

	sc.keys = keys
	sc.release()
}

// decodeRef converts a terminal ref to the Classify return convention.
func decodeRef(r ref) int {
	if r == refNoMatch {
		return -1
	}
	return refRule(r)
}
