package expcuts

import "fmt"

// arena is the flat lookup layout every native walk reads — the in-memory
// analogue of the paper's per-level SRAM layout (one HABS word plus one CPA
// pointer word per level, §4.2.2/Figure 4), with two declared differences
// from the serialized image:
//
//   - Single-child nodes are elided. A node whose 2^w cells all hold the
//     same reference consumes w key bits no rule distinguishes; every
//     reference to it (the root's included) is resolved to what it points
//     at, so it never enters the arena. This is the path compression of a
//     multibit trie: it only shortens a walk, whose worst case stays
//     ⌈104/w⌉ visits.
//   - A node is one packed word with its key position beside it: the HABS
//     bits and the CPA base share a uint64 (the paper's "HABS + node
//     descriptor in one SRAM word"), and pos says which key bits the node
//     cuts on, since a walk that skips levels can no longer count rounds.
//     A visit is two dependent loads: nodes[id], then one cpa word.
//
// Survivors keep the builder's level-major order (see reorderLevelMajor),
// refs are int32 indices (or encoded leaves), and the arena holds no Go
// pointers — the garbage collector never traverses it, and any number of
// serving shards share one immutable arena with no synchronization.
//
// The builder graph t.nodes, BuildStats, the serialized image and the
// access programs Lookup/Program record from it stay the paper's full
// ⌈104/w⌉-level layout; npsim replays that, not this.
type arena struct {
	nodes []arenaNode
	cpa   []ref // concatenated CPA sub-arrays of every node
	root  ref   // t.root resolved through single-child chains
}

// arenaNode is one surviving internal node.
type arenaNode struct {
	// word holds the HABS bit string in its low 32 bits (v <= 5) and the
	// node's first index into cpa in its high 32.
	word uint64
	// pos is the key-bit position the node cuts at: level * w.
	pos uint8
}

// buildArena flattens t.nodes into the arena: it drops single-child nodes,
// renumbers the survivors in t.nodes order, and stores each survivor's
// resolved cells under the same sub-array deduplication as
// bitstring.CompressHABS (1 HABS word + one 2^u-ref sub-array per set bit).
func (t *Tree) buildArena() error {
	w, v := t.cfg.StrideW, t.cfg.HabsV
	sub := 1 << (w - v)
	cells := 1 << w

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
			r = t.nodes[r].ptrs[0]
		}
		if r >= 0 {
			r = newID[r]
		}
		return r
	}

	// MemoryWordsAggregated - nodes is the CPA size before elision (computed
	// by collectStats with the dedup rule below), an upper bound after it.
	t.ar = arena{
		nodes: make([]arenaNode, 0, survivors),
		cpa:   make([]ref, 0, t.stats.MemoryWordsAggregated-len(t.nodes)),
		root:  resolve(t.root),
	}
	row := make([]ref, cells)
	for id, n := range t.nodes {
		if newID[id] < 0 {
			continue
		}
		base := len(t.ar.cpa)
		if uint64(base) > uint64(^uint32(0)) {
			return fmt.Errorf("expcuts: arena CPA exceeds 2^32 words (%d nodes)", len(t.nodes))
		}
		for i, p := range n.ptrs {
			row[i] = resolve(p)
		}
		var habs uint64
		for i := 0; i < cells; i += sub {
			if i == 0 || !equalRefs(row[i-sub:i], row[i:i+sub]) {
				habs |= 1 << uint(i/sub)
				t.ar.cpa = append(t.ar.cpa, row[i:i+sub]...)
			}
		}
		t.ar.nodes = append(t.ar.nodes, arenaNode{
			word: uint64(base)<<32 | habs,
			pos:  uint8(uint(n.level) * w),
		})
	}
	return nil
}
