package expcuts

import (
	"sync"

	"repro/internal/rules"
)

// batchScratch is the per-call scratch of ClassifyBatch, recycled through
// a pool so the steady-state batch path allocates nothing: the packed keys
// (hi and lo word) and the indices of the packets still walking. The
// per-packet tree position is carried in the caller's out slice itself (a
// ref fits an int).
type batchScratch struct {
	keys [][2]uint64
	act  []int32
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
		*sc = batchScratch{}
	}
	batchPool.Put(sc)
}

// ClassifyBatch classifies hs[i] into out[i] (the rules.BatchClassifier
// contract; out must be at least as long as hs). It computes every packet's
// 104-bit key and wide-root ref up front, then walks the compressed arena
// level-synchronously: all packets make their next node visit before any
// packet makes the one after, so a node line and CPA refs that several
// packets traverse are hot in cache when the second packet arrives instead
// of evicted by an unrelated full-depth walk. A round is one visit, not one
// tree level — elided levels are skipped — but every visit consumes at
// least w key bits, so every packet finishes in at most ⌈104/w⌉ rounds: the
// batched analogue of the paper's explicit-depth guarantee.
//
// The steady state performs zero heap allocations; answers are identical
// to per-packet Classify.
func (t *Tree) ClassifyBatch(hs []rules.Header, out []int) {
	n := len(hs)
	out = out[:n]
	if n == 0 {
		return
	}
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.keys) < n {
		sc.keys, sc.act = make([][2]uint64, n), make([]int32, n)
	}
	keys, act := sc.keys[:n], sc.act[:n]
	// act[:live] lists the packets still walking. Every round writes each
	// walker's index at act[live] and advances live only past those that
	// reached a node: a compaction without a branch. Scanning all of out
	// and branching past finished packets measured slower (EXPERIMENTS.md,
	// "A wide root for the native walk").
	live := 0
	for i, h := range hs {
		hi, lo := h.Key().Words()
		keys[i] = [2]uint64{hi, lo}
		r := t.ar.wide.at(hi)
		out[i] = int(r)
		act[live] = int32(i)
		live += int(^uint32(r) >> 31)
	}

	st := t.step()
	nodes, cpa := t.ar.nodes, t.ar.cpa
	for live > 0 {
		walking := act[:live]
		live = 0
		for _, i := range walking {
			nd := &nodes[out[i]]
			r := cpa[st.cpaIndex(nd, keys[i][nd.pos>>6&1])]
			out[i] = int(r)
			act[live] = i
			live += int(^uint32(r) >> 31)
		}
	}
	for i := range out {
		out[i] = decodeRef(ref(out[i]))
	}
	sc.release()
}

// decodeRef converts a terminal ref to the Classify return convention.
func decodeRef(r ref) int {
	if r == refNoMatch {
		return -1
	}
	return refRule(r)
}
