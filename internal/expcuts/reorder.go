package expcuts

// reorderLevelMajor renumbers t.nodes into BFS level-major order: all level-0
// nodes first, then level 1, and so on, preserving the original id order
// within each level. After the reorder the arena built over t.nodes (whose
// survivors keep this order) has every level's node lines (and, because
// buildArena appends each node's run refs in node order, its cpa refs) contiguous —
// the software analogue of the paper's per-level SRAM banks, and what makes the
// pipelined walk's next-node lines predictable instead of scattered across the
// build's recursion order.
//
// The serialized image is byte-identical to the pre-reorder layout: serialize
// groups nodes by level and, within a level, emits them in ascending id order.
// A stable level-major sort changes neither the per-level membership nor the
// within-level relative order, so every node lands at the same image offset.
// TestReorderImageByteIdentical pins this down against a build with the
// reorder disabled.
func (t *Tree) reorderLevelMajor() {
	if len(t.nodes) == 0 {
		return
	}
	depth := t.Depth()
	// next[l] starts as the first id of level l and counts up through it.
	next := make([]int32, depth+1)
	for _, n := range t.nodes {
		next[n.level+1]++
	}
	for l := 0; l < depth; l++ {
		next[l+1] += next[l]
	}
	remap := make([]ref, len(t.nodes))
	for id, n := range t.nodes {
		remap[id] = next[n.level]
		next[n.level]++
	}
	reordered := make([]node, len(t.nodes))
	for id, n := range t.nodes {
		reordered[remap[id]] = n
		for i, r := range n.runs {
			if r.ref >= 0 {
				n.runs[i].ref = remap[r.ref]
			}
		}
	}
	t.nodes = reordered
	if t.root >= 0 {
		t.root = remap[t.root]
	}
}
