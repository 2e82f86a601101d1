package expcuts

import (
	"sync"

	"repro/internal/rules"
)

// Software-pipelined stage execution over the compressed arena.
//
// The hardware ExpCuts design maps the tree's fixed ⌈104/w⌉ levels onto
// explicit pipeline stages with per-stage SRAM banks, so every stage's
// memory access overlaps every other stage's. The level-synchronous
// ClassifyBatch already gets part of that — all packets make a visit
// together — but each packet's step is a serial chain of dependent loads
// (CPA pointer → next node's line → next CPA pointer).
//
// ClassifyBatchPipelined restructures the walk into a two-stage split over
// interleaved groups of the packets still walking:
//
//	stage A (lookup):   for each packet in the group, issue the load of the
//	                    CPA index it carries — one indexed load, and the
//	                    group's loads are independent, so `group` arena
//	                    fetches are in flight at once;
//	stage B (advance):  consume the pointers and, for every packet that
//	                    descended, immediately load the *next* node's line
//	                    and compute the CPA index the packet reads there
//	                    (key chunk, popcount rank) into the carried
//	                    per-packet state — while the following group is
//	                    back in stage A, and without putting those loads on
//	                    stage A's critical path. Packets that reached a
//	                    leaf drop out of the walk order here.
//
// Because the arena is level-major (reorderLevelMajor; elision keeps the
// order), the lines stage B touches are contiguous per level, so group g's
// advance warms the bank group g+1 hits next — the multi-core software
// analogue of the paper's per-stage SRAM banks and of the level-to-stage
// mapping in bidirectional pipelined lookup designs. Path compression only
// shortens that level→stage chain: a packet may skip stages, never revisit
// one.
//
// The affine mode counting-sorts the walk order by root key chunk before
// the walk, so each group descends one subtree slice and a shard's working
// set concentrates on one contiguous region of every level — the analogue
// of biasing a stage's bank to one microengine's local SRAM.

const (
	// DefaultPipelineGroup is the stage group size used when the caller
	// passes group <= 0: a whole default engine batch, so stage A issues
	// one full wave of independent arena loads per level. See
	// AutoPipelineGroup in internal/engine for the GOMAXPROCS-derived
	// choice.
	DefaultPipelineGroup = 64
	// MaxPipelineGroup caps the stage group size; larger requests are
	// clamped. Past this the two stages stop interleaving within a batch
	// and extra group size only grows the carried state.
	MaxPipelineGroup = 1024
)

// pipeScratch is the pooled per-call scratch of ClassifyBatchPipelined:
// the key words, the carried per-packet CPA index (computed in stage B of
// the previous visit), and the walk order with the affine mode's
// counting-sort histogram.
type pipeScratch struct {
	keys [][2]uint64
	ix   []uint32
	ord  []int32
	cnt  []int32
}

var pipePool = sync.Pool{New: func() any { return new(pipeScratch) }}

func (sc *pipeScratch) ensure(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([][2]uint64, n)
		sc.ix = make([]uint32, n)
		sc.ord = make([]int32, n)
	}
}

// release returns the scratch to the pool unless a jumbo batch grew it past
// the retention cap (see maxPooledBatch in batch.go).
func (sc *pipeScratch) release() {
	if cap(sc.keys) > maxPooledBatch {
		*sc = pipeScratch{}
	}
	pipePool.Put(sc)
}

// ClassifyBatchPipelined classifies hs[i] into out[i] with the software-
// pipelined stage walk described above. group is the stage group size
// (<= 0 selects DefaultPipelineGroup, values above MaxPipelineGroup are
// clamped); affine pre-sorts the walk order by root key chunk so each
// group descends one subtree slice. Answers are identical to Classify and
// ClassifyBatch for every group size; the steady state performs zero heap
// allocations.
func (t *Tree) ClassifyBatchPipelined(hs []rules.Header, out []int, group int, affine bool) {
	n := len(hs)
	out = out[:n]
	if n == 0 {
		return
	}
	if t.ar.root < 0 {
		m := decodeRef(t.ar.root)
		for i := range out {
			out[i] = m
		}
		return
	}
	if group <= 0 {
		group = DefaultPipelineGroup
	}
	if group > MaxPipelineGroup {
		group = MaxPipelineGroup
	}

	sc := pipePool.Get().(*pipeScratch)
	sc.ensure(n)
	keys := sc.keys[:n]
	for i, h := range hs {
		keys[i][0], keys[i][1] = h.Key().Words()
	}

	st := t.step()
	nodes, cpa := t.ar.nodes, t.ar.cpa
	ix := sc.ix[:n]

	root := &nodes[t.ar.root]
	for i := range ix {
		ix[i] = st.cpaIndex(root, keys[i][root.pos>>6&1])
	}
	// act lists the packets still walking, in walk order; each round
	// compacts it in place, so a finished packet costs nothing afterwards.
	act := sc.ord[:n]
	if affine && n > 1 {
		sc.sortAffine(keys, root.pos, st)
	} else {
		for i := range act {
			act[i] = int32(i)
		}
	}

	// visits[pos] counts this call's node visits at key position pos; it is
	// folded into the shared per-level counters once, at the end.
	var visits [128]uint32
	visits[root.pos] = uint32(n)
	for len(act) > 0 {
		live := 0
		for base := 0; base < len(act); base += group {
			end := base + group
			if end > len(act) {
				end = len(act)
			}
			grp := act[base:end]
			// Stage A: issue the group's CPA pointer loads. Each
			// iteration is independent, so the fetches overlap.
			for _, i := range grp {
				out[i] = int(cpa[ix[i]])
			}
			// Stage B: consume the pointers; survivors pull the next
			// node's (level-contiguous) line and compute their next CPA
			// index off stage A's critical path.
			for _, i := range grp {
				if o := out[i]; o >= 0 {
					nd := &nodes[o]
					ix[i] = st.cpaIndex(nd, keys[i][nd.pos>>6&1])
					visits[nd.pos&127]++
					act[live] = i
					live++
				}
			}
		}
		act = act[:live]
	}
	for i := range out {
		out[i] = decodeRef(ref(out[i]))
	}
	// Stage 0 counts every packet of the walk, root elided or not.
	visits[0] = uint32(n)
	w := t.cfg.StrideW
	for l := range t.stageFill {
		if c := visits[uint(l)*w]; c != 0 {
			t.stageFill[l].Add(uint64(c))
		}
	}
	sc.release()
}

// sortAffine counting-sorts packet indices by the key chunk the root node
// cuts on (the top w bits unless the root chain was elided) into sc.ord.
// Groups cut from the sorted order then share a root child — and, with the
// level-major arena, one contiguous slice of every deeper level.
func (sc *pipeScratch) sortAffine(keys [][2]uint64, rootPos uint8, st stepper) {
	buckets := int(st.mask) + 1
	if cap(sc.cnt) < buckets+1 {
		sc.cnt = make([]int32, buckets+1)
	}
	cnt := sc.cnt[:buckets+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for i := range keys {
		cnt[st.chunk(rootPos, keys[i][rootPos>>6&1])+1]++
	}
	for b := 0; b < buckets; b++ {
		cnt[b+1] += cnt[b]
	}
	ord := sc.ord[:len(keys)]
	for i := range keys {
		b := st.chunk(rootPos, keys[i][rootPos>>6&1])
		ord[cnt[b]] = int32(i)
		cnt[b]++
	}
}
