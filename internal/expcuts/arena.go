package expcuts

import (
	"fmt"
	"math/bits"
)

// arena is the flat lookup layout every native walk reads — the host's
// analogue of the paper's per-level SRAM layout (one HABS word plus one CPA
// pointer word per level, §4.2.2/Figure 4), sized to a 64-byte cache line
// instead of a 32-bit SRAM word. It differs from the serialized image in
// three declared ways:
//
//   - Single-child nodes are elided. A node whose 2^w cells all hold the
//     same reference consumes w key bits no rule distinguishes; every
//     reference to it (the root's included) is resolved to what it points
//     at, so it never enters the arena. This is the path compression of a
//     multibit trie: it only shortens a walk, whose worst case stays
//     ⌈104/w⌉ visits.
//   - A node is one line of run bits, the full-resolution ABS (v = w)
//     instead of the image's 2^v-bit HABS: bit c is set iff cell c starts a
//     run of equal resolved references, and the CPA holds one reference per
//     run, not one 2^(w-v)-ref sub-array per HABS bit. The line also holds
//     the CPA base, per-word rank prefixes and pos, the key bits the node
//     cuts on (a walk that skips levels cannot count rounds). A visit is two
//     dependent loads: the node line, then one cpa word.
//   - Classify and ClassifyBatch enter through a wide root: one 2^16-cell
//     node in the same run format that resolves the first 16 key bits in
//     one visit, replacing the nodes a walk from root would visit above bit
//     16 (the root and a level-1 node at w = 8). Each of its refs is a leaf
//     or a node at pos >= 16, so a walk still makes at most ⌈104/w⌉ visits.
//     It holds one ref per run (558 on CR04), not a 2^16-entry table, so it
//     stays in L1. ClassifyBatchPipelined still walks from root, so its
//     StageFill counts the paper's levels.
//
// Survivors keep the builder's level-major order (see reorderLevelMajor),
// refs are int32 indices (or encoded leaves), and the arena holds no Go
// pointers — the garbage collector never traverses it, and any number of
// serving shards share one immutable arena with no synchronization.
//
// The builder graph t.nodes, BuildStats, the serialized image (HabsV
// included) and the access programs Lookup/Program record from it stay the
// paper's full ⌈104/w⌉-level layout; npsim replays that, not this.
type arena struct {
	nodes []arenaNode
	cpa   []ref // one ref per run, node after node
	root  ref   // t.root resolved through single-child chains
	wide  wideRoot
}

// wideBits is the number of leading key bits the wide root resolves.
const wideBits = 16

// wideRoot is the arena's entry node: arenaNode's run format at 2^16 cells.
type wideRoot struct {
	runs [1 << wideBits / 64]uint64 // bit c%64 of runs[c/64] is set iff cell c starts a run
	pre  [1 << wideBits / 64]uint16 // pre[k]: set bits in runs[:k]
	refs []ref                      // one per run: a leaf or a node at pos >= wideBits
}

// at returns the ref the wide root holds for hi, the key's first word.
func (wr *wideRoot) at(hi uint64) ref {
	c := hi >> (64 - wideBits)
	wi := c >> 6
	return wr.refs[uint32(wr.pre[wi])+uint32(bits.OnesCount64(wr.runs[wi]&(uint64(2)<<(c&63)-1)))-1]
}

// arenaLineBytes is the size of one arenaNode: one host cache line.
const arenaLineBytes = 64

// arenaNode is one surviving internal node. A stride of at most 8 gives at
// most 256 cells, so four run words always suffice.
type arenaNode struct {
	runs [4]uint64 // bit c%64 of runs[c/64] is set iff cell c starts a run
	base uint32    // the node's first index into cpa
	pre  [4]uint8  // pre[k]: set bits in runs[:k] (at most 192)
	pos  uint8     // the key-bit position the node cuts at: level * w
	_    [arenaLineBytes - 41]byte
}

// cpaIndex returns the cpa index a packet reads at node nd (kw as for chunk):
// cell c's run is the number of run starts at or below c. When c%64 is 63
// the shift 2<<63 wraps to 0, and 0-1 is the all-ones mask that case needs.
func (st stepper) cpaIndex(nd *arenaNode, kw uint64) uint32 {
	c := st.chunk(nd.pos, kw)
	wi := c >> 6 & 3
	rank := uint32(nd.pre[wi]) + uint32(bits.OnesCount64(nd.runs[wi]&(uint64(2)<<(c&63)-1)))
	return nd.base + rank - 1
}

// ArenaBytes returns the native arena's size: a line per node, 4 B per run,
// and the wide root's run words, rank prefixes and refs.
func (t *Tree) ArenaBytes() int {
	wr := &t.ar.wide
	return len(t.ar.nodes)*arenaLineBytes + len(t.ar.cpa)*4 + len(wr.runs)*8 + len(wr.pre)*2 + len(wr.refs)*4
}

// buildArena flattens t.nodes into the arena: it drops single-child nodes,
// renumbers the survivors in t.nodes order, and copies each survivor's runs
// as one run bit and one resolved ref per run.
func (t *Tree) buildArena() error {
	// newID[id] is the survivor's arena index, or -1 for an elided node.
	newID := make([]ref, len(t.nodes))
	survivors := 0
	for id, n := range t.nodes {
		newID[id] = -1
		if !n.singleChild() {
			newID[id] = ref(survivors)
			survivors++
		}
	}
	// resolve follows a reference through elided nodes (at most one per
	// level) and returns it in arena numbering.
	resolve := func(r ref) ref {
		for r >= 0 && newID[r] < 0 {
			r = t.nodes[r].runs[0].ref
		}
		if r >= 0 {
			r = newID[r]
		}
		return r
	}

	t.ar = arena{nodes: make([]arenaNode, 0, survivors), root: resolve(t.root)}
	for id, n := range t.nodes {
		if newID[id] < 0 {
			continue
		}
		base := len(t.ar.cpa)
		if uint64(base) > uint64(^uint32(0)) {
			return fmt.Errorf("expcuts: arena CPA exceeds 2^32 words (%d nodes)", len(t.nodes))
		}
		nd := arenaNode{base: uint32(base), pos: uint8(uint(n.level) * t.cfg.StrideW)}
		// Adjacent runs hold different refs, but two of them can resolve
		// to the same one; those merge into one arena run.
		start := int32(0)
		for _, rn := range n.runs {
			if r := resolve(rn.ref); start == 0 || r != t.ar.cpa[len(t.ar.cpa)-1] {
				nd.runs[start>>6] |= 1 << (start & 63)
				t.ar.cpa = append(t.ar.cpa, r)
			}
			start = rn.end
		}
		for k := 1; k < len(nd.pre); k++ {
			nd.pre[k] = nd.pre[k-1] + uint8(bits.OnesCount64(nd.runs[k-1]))
		}
		t.ar.nodes = append(t.ar.nodes, nd)
	}
	t.buildWide()
	return nil
}

// buildWide walks every 16-bit key prefix from root through the nodes that
// cut above bit wideBits and stores where each walk ends as the wide root's
// runs.
func (t *Tree) buildWide() {
	st, wr := t.step(), &t.ar.wide
	for c := uint64(0); c < 1<<wideBits; c++ {
		r := t.ar.root
		for r >= 0 && t.ar.nodes[r].pos < wideBits {
			r = t.ar.cpa[st.cpaIndex(&t.ar.nodes[r], c<<(64-wideBits))]
		}
		if c == 0 || r != wr.refs[len(wr.refs)-1] {
			wr.runs[c>>6] |= 1 << (c & 63)
			wr.refs = append(wr.refs, r)
		}
	}
	for k := 1; k < len(wr.pre); k++ {
		wr.pre[k] = wr.pre[k-1] + uint16(bits.OnesCount64(wr.runs[k-1]))
	}
}
