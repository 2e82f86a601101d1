// Package expcuts implements Explicit Cuttings (ExpCuts), the paper's core
// contribution: a decision-tree packet classifier optimized for multi-core
// network processors.
//
// ExpCuts departs from HiCuts in two ways (§4.2.1):
//
//  1. Fixed stride. Every internal node cuts its sub-space into exactly 2^w
//     equal cells, consuming the next w bits of the 104-bit concatenated
//     header key (srcIP ‖ dstIP ‖ srcPort ‖ dstPort ‖ proto). The tree
//     depth is therefore exactly ⌈104/w⌉ — an *explicit* worst-case bound
//     on per-packet memory accesses, the metric that matters at line rate.
//
//  2. No linear search. Cutting continues until every sub-space is fully
//     resolved: a node becomes a leaf when no rule intersects it, or when
//     the highest-priority intersecting rule covers the whole sub-space
//     (that rule then beats every other intersecting rule at every point
//     inside, so it is the match). This is binth = 1 in HiCuts terms.
//
// Both changes explode memory, which the hierarchical space aggregation of
// §4.2.2 wins back: child pointer arrays are compressed with a Hierarchical
// Aggregation Bit String (HABS, internal/bitstring) and sub-spaces with
// identical relative rule geometry share one child node.
//
// The same observation makes the build cheap. Along a node's cut dimension
// only the cells holding and following a rule endpoint can differ from
// their left neighbour, so the builder groups the 2^w cells into classes
// of equivalent cells and builds one child per class (≈ 5 per node on
// CR04 instead of 256). The tree is the one a per-cell expansion builds,
// node for node. A built node keeps only its runs of equal children — the
// run starts plus one reference per run that the CPA stores (≈ 3.5 per
// node on CR04) — so no 2^w-wide pointer array exists per node; a row is
// expanded into one reused scratch row only where the image needs it.
package expcuts

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bitstring"
	"repro/internal/buildgov"
	"repro/internal/memlayout"
	"repro/internal/rules"
)

// Config parameterizes tree construction.
type Config struct {
	// StrideW is w: every internal node has 2^w children. It must divide
	// the width of every header field, i.e. be one of 1, 2, 4, 8.
	// The paper uses 8.
	StrideW uint
	// HabsV is v: the HABS has 2^v bits. Must satisfy v <= StrideW and
	// v <= bitstring.MaxV. The paper uses 4 (a 16-bit HABS). It shapes the
	// serialized image and the HABS ablation only; the native walk always
	// uses full-resolution runs (see arena.go).
	HabsV uint
	// Sharing selects how aggressively sub-spaces with identical relative
	// rule geometry share child nodes; see SharingMode.
	Sharing SharingMode
	// MaxNodes aborts construction beyond this many unique nodes
	// (default 4 Mi) instead of exhausting memory.
	MaxNodes int
	// Channels is the number of SRAM channels for serialization (1..4).
	Channels int
	// Headroom weights the level-to-channel allocation.
	Headroom memlayout.Headroom

	// noLevelMajor skips the BFS level-major node reorder that makes each
	// level's arena entries contiguous. Unexported: it exists only so the
	// serialized-image byte-identity regression test can build a tree in
	// the raw recursion order and compare images. The reorder never changes
	// the image (see reorderLevelMajor), so there is no reason for callers
	// to set it.
	noLevelMajor bool
}

// SharingMode selects the node-sharing policy, the subject of the sharing
// ablation.
type SharingMode int

const (
	// ShareGlobal (the default, and what ExpCuts does) deduplicates
	// sub-spaces with equal signatures anywhere in the tree.
	ShareGlobal SharingMode = iota
	// ShareSiblings deduplicates only among the 2^w children of one node
	// — the pointer aggregation HiCuts performs (Figure 2 of the paper).
	ShareSiblings
	// ShareNone builds the fully expanded tree. With fixed-stride cutting
	// a single wildcard dimension multiplies the expansion by 2^w per
	// level, so this is infeasible beyond toy rule sets; it exists to
	// demonstrate exactly that (the MaxNodes budget makes it fail
	// cleanly).
	ShareNone
)

// String names the sharing mode.
func (m SharingMode) String() string {
	switch m {
	case ShareGlobal:
		return "global"
	case ShareSiblings:
		return "siblings"
	case ShareNone:
		return "none"
	}
	return fmt.Sprintf("SharingMode(%d)", int(m))
}

// DefaultConfig matches the paper: w = 8 (256 cuts), 16-bit HABS, global
// sharing, four SRAM channels.
func DefaultConfig() Config {
	return Config{
		StrideW:  8,
		HabsV:    4,
		Sharing:  ShareGlobal,
		MaxNodes: 4 << 20,
		Channels: memlayout.NumChannels,
		Headroom: memlayout.UniformHeadroom,
	}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.StrideW == 0 {
		c.StrideW = d.StrideW
	}
	if c.HabsV == 0 && c.StrideW > 0 {
		c.HabsV = d.HabsV
		if c.HabsV > c.StrideW {
			c.HabsV = c.StrideW
		}
	}
	if c.Sharing < ShareGlobal || c.Sharing > ShareNone {
		return fmt.Errorf("expcuts: invalid sharing mode %d", c.Sharing)
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = d.MaxNodes
	}
	if c.Channels == 0 {
		c.Channels = d.Channels
	}
	if c.Headroom == (memlayout.Headroom{}) {
		c.Headroom = d.Headroom
	}
	switch c.StrideW {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("expcuts: stride w=%d must divide every field width (1, 2, 4 or 8)", c.StrideW)
	}
	if c.HabsV > c.StrideW || c.HabsV > bitstring.MaxV {
		return fmt.Errorf("expcuts: HABS v=%d must satisfy v <= w=%d and v <= %d",
			c.HabsV, c.StrideW, bitstring.MaxV)
	}
	if c.Channels < 1 || c.Channels > memlayout.NumChannels {
		return fmt.Errorf("expcuts: channels %d out of [1,%d]", c.Channels, memlayout.NumChannels)
	}
	return nil
}

// ref is a child reference inside the in-memory tree:
//
//	>= 0  index into Tree.nodes
//	  -1  no-match leaf
//	<= -2 rule leaf, rule index = -(ref+2)
type ref = int32

const refNoMatch ref = -1

func refLeaf(ruleIdx int) ref { return ref(-(ruleIdx + 2)) }

func refRule(r ref) int { return int(-r - 2) }

// node is one internal tree node: its 2^w cells as maximal runs of equal
// child references, in cell order. Adjacent runs hold different refs and
// the last run ends at 2^w. The level is the node's key-bit position / w.
type node struct {
	level int
	runs  []run
}

// run is cells first..end-1 of a node holding ref, where first is the
// previous run's end (0 for the first run).
type run struct {
	end int32
	ref ref
}

// singleChild reports whether all 2^w cells hold the same reference, i.e.
// the node's key bits distinguish nothing.
func (n *node) singleChild() bool { return len(n.runs) == 1 }

// BuildStats reports the tree-shape numbers behind Figure 6 and §6.3.
type BuildStats struct {
	// Nodes is the number of unique internal nodes.
	Nodes int
	// NodesPerLevel counts unique internal nodes at each tree level.
	NodesPerLevel []int
	// Depth is the explicit tree depth ⌈104/w⌉.
	Depth int
	// AvgUniqueChildren is the mean number of distinct children per
	// internal node (the paper observes < 10 at 256 cuts, §4.2.2).
	AvgUniqueChildren float64
	// MemoryWordsAggregated is the SRAM footprint with HABS/CPA
	// compression; MemoryWordsFull is the footprint with full 2^w
	// pointer arrays (the "without aggregation" bar of Figure 6).
	MemoryWordsAggregated, MemoryWordsFull int
	// WorstCaseAccesses is the explicit per-lookup SRAM command bound:
	// two single-word accesses per level (HABS word, CPA pointer).
	WorstCaseAccesses int
}

// Tree is a built ExpCuts classifier.
type Tree struct {
	cfg   Config
	rs    *rules.RuleSet
	nodes []node
	root  ref
	stats BuildStats
	ar    arena     // compressed flat lookup structure; see arena.go
	work  buildWork // what buildGraph did

	// stageFill[l] counts the pipelined batch walk's node visits at
	// original level l, and at l = 0 every packet walked (see StageFill).
	stageFill []atomic.Uint64

	// probe, when set, sees every memo probe of the build: its bit
	// position, box and (pruned) rule list. Only tests set it.
	probe func(pos uint, box rules.Box, ruleIdx []int32)

	image   *memlayout.Image
	rootPtr uint32
}

// builder carries the construction state of one build. Nodes are appended
// in post-order (children before their parent).
type builder struct {
	t     *Tree
	gov   *buildgov.Governor
	mode  SharingMode
	nodes []node
	work  buildWork
	boxes []rules.Box // per rule: its box, computed once per build

	// Scratch reused by every node expansion; build finishes with it before
	// it recurses.
	sig   []byte
	class []int32    // per cell of the node being expanded: its class
	spans []ruleSpan // per rule of that node: the cells it spans

	// Stacks of the classes and class rule lists of the nodes on the
	// recursion path: a node pushes one frame and pops it when it returns.
	classes []cellClass
	ruleStk []int32
}

// ruleSpan is rule ri's span of cells lo..hi along a node's cut dimension.
type ruleSpan struct{ ri, lo, hi int32 }

// cellClass is a run of equivalent cells ending before cell end (it starts
// where the previous class ends) and its rules, ruleStk[lo:lo+n].
type cellClass struct {
	end   int
	lo, n int32
}

// buildWork counts what a build did: build calls, signatures computed and
// memo hits among them. The golden test pins these for two paper sets.
type buildWork struct{ calls, sigs, hits int }

// New builds an ExpCuts tree over the rule set and serializes it.
func New(rs *rules.RuleSet, cfg Config) (*Tree, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: the build cooperatively checks ctx and
// charges nodes, memo entries and estimated heap bytes against budget
// (nil budget = ctx only) in every recursion step, so a runaway build on
// an adversarial rule set aborts in bounded time with a typed
// *buildgov.BudgetError instead of hanging or exhausting memory.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, rs: rs}
	if err := t.buildGraph(buildgov.Start(ctx, budget)); err != nil {
		return nil, err
	}
	if err := t.finish(); err != nil {
		return nil, err
	}
	return t, nil
}

// buildGraph builds the pointer graph (t.nodes, t.root) under gov.
func (t *Tree) buildGraph(gov *buildgov.Governor) error {
	b := &builder{t: t, mode: t.cfg.Sharing, gov: gov, boxes: t.rs.Boxes(), class: make([]int32, 1<<t.cfg.StrideW)}
	var memo map[string]ref
	if b.mode == ShareGlobal {
		memo = make(map[string]ref)
	}
	all := make([]int32, t.rs.Len())
	for i := range all {
		all[i] = int32(i)
	}
	root, err := b.build(0, rules.FullBox(), all, memo)
	if err != nil {
		return err
	}
	t.root, t.nodes, t.work = root, b.nodes, b.work
	return nil
}

// finish derives everything served or reported from the built graph
// (t.nodes, t.root): stats, the native arena and the serialized image.
func (t *Tree) finish() error {
	if !t.cfg.noLevelMajor {
		t.reorderLevelMajor()
	}
	t.stageFill = make([]atomic.Uint64, t.Depth())
	t.collectStats()
	if err := t.buildArena(); err != nil {
		return err
	}
	return t.serialize()
}

// build constructs the sub-tree for the box starting at key bit position
// pos, holding ruleIdx (priority order, all intersecting box). memo is the
// sharing scope this node participates in: the global map (ShareGlobal), a
// map shared with its siblings only (ShareSiblings), or nil (ShareNone).
func (b *builder) build(pos uint, box rules.Box, ruleIdx []int32, memo map[string]ref) (ref, error) {
	t := b.t
	b.work.calls++
	if err := b.gov.Check(); err != nil {
		return 0, err
	}
	// Rule overlap pruning: a rule covering the whole box shadows all
	// lower-priority rules.
	for k, ri := range ruleIdx {
		if b.boxes[ri].Covers(box) {
			ruleIdx = ruleIdx[:k+1]
			break
		}
	}
	if len(ruleIdx) == 0 {
		return refNoMatch, nil
	}
	top := ruleIdx[0]
	// Leaf when the sub-space is fully resolved: the highest-priority
	// intersecting rule covers it (then it wins everywhere inside), or
	// all 104 bits are consumed (the box is a single point, which every
	// remaining rule covers).
	if pos >= rules.KeyBits || b.boxes[top].Covers(box) {
		return refLeaf(int(top)), nil
	}

	var key string // a copy of the reused signature, made only on a miss
	if memo != nil {
		if t.probe != nil {
			t.probe(pos, box, ruleIdx)
		}
		sig := b.signature(pos, box, ruleIdx)
		b.work.sigs++
		if r, ok := memo[string(sig)]; ok {
			b.work.hits++
			return r, nil
		}
		key = string(sig)
	}

	w := t.cfg.StrideW
	dim := dimOfBit(pos)
	cells := 1 << w
	log2cw := uint(rules.DimBits[dim]) - (pos - rules.DimOffset[dim]) - w

	childMemo := memo // ShareGlobal: one map for the whole tree
	if b.mode == ShareSiblings {
		childMemo = make(map[string]ref)
	}

	// Group the cells along dim into classes. A class starts at cell 0 and
	// at the cells holding and following each clipped rule endpoint, so a
	// class of two or more cells lies wholly inside or wholly outside every
	// rule: its cells share one rule list and one relative geometry, hence
	// one signature and one child. Only a class's first cell is built; the
	// others would be memo hits, or the same leaf or no-match, so the tree
	// is the one a per-cell expansion builds. Without a memo (ShareNone)
	// every cell is built, so every cell starts a class.
	class := b.class[:cells] // 1 marks a class start, until numbered below
	var start int32
	if childMemo == nil {
		start = 1
	}
	for c := range class {
		class[c] = start
	}
	class[0] = 1
	boxLo := box[dim].Lo
	spans := b.spans[:0]
	for _, ri := range ruleIdx {
		clip, ok := b.boxes[ri][dim].Intersect(box[dim])
		if !ok {
			continue
		}
		s := ruleSpan{ri: ri, lo: int32(uint64(clip.Lo-boxLo) >> log2cw), hi: int32(uint64(clip.Hi-boxLo) >> log2cw)}
		spans = append(spans, s)
		for _, c := range [...]int32{s.lo, s.lo + 1, s.hi, s.hi + 1} {
			if int(c) < cells {
				class[c] = 1
			}
		}
	}
	b.spans = spans
	// Push this node's frame: number the classes, count each one's rules,
	// prefix-sum the counts into offsets, then fill in priority order.
	classBase, ruleBase := len(b.classes), int32(len(b.ruleStk))
	for c, s := range class {
		if s == 1 {
			b.classes = append(b.classes, cellClass{})
		}
		class[c] = int32(len(b.classes) - 1 - classBase)
		b.classes[len(b.classes)-1].end = c + 1
	}
	classes := b.classes[classBase:]
	for _, s := range spans {
		for k := class[s.lo]; k <= class[s.hi]; k++ {
			classes[k].n++
		}
	}
	next := ruleBase
	for k := range classes {
		classes[k].lo, next = next, next+classes[k].n
		classes[k].n = 0 // counts again as the fill places the rules
	}
	b.ruleStk = slices.Grow(b.ruleStk, int(next-ruleBase))[:next]
	for _, s := range spans {
		for k := class[s.lo]; k <= class[s.hi]; k++ {
			b.ruleStk[classes[k].lo+classes[k].n] = s.ri
			classes[k].n++
		}
	}

	n := node{level: int(pos / w), runs: make([]run, 0, len(classes))}
	first := 0
	for k := range classes {
		cl := b.classes[classBase+k] // children's frames may move the stacks
		cellBox := box
		cellBox[dim] = rules.Span{
			Lo: boxLo + uint32(uint64(first)<<log2cw),
			Hi: boxLo + uint32(uint64(first+1)<<log2cw) - 1,
		}
		child, err := b.build(pos+w, cellBox, b.ruleStk[cl.lo:cl.lo+cl.n:cl.lo+cl.n], childMemo)
		if err != nil {
			return 0, err
		}
		// A class whose child equals the previous class's extends its run.
		if k := len(n.runs) - 1; k >= 0 && n.runs[k].ref == child {
			n.runs[k].end = int32(cl.end)
		} else {
			n.runs = append(n.runs, run{end: int32(cl.end), ref: child})
		}
		first = cl.end
	}
	b.classes, b.ruleStk = b.classes[:classBase], b.ruleStk[:ruleBase]
	if len(b.nodes) >= t.cfg.MaxNodes {
		return 0, fmt.Errorf("expcuts: node budget %d exhausted (rule set %q, w=%d, sharing %v)",
			t.cfg.MaxNodes, t.rs.Name, w, b.mode)
	}
	// Charge the node (its runs + header + amortized expansion scratch —
	// see the constants below) and, below, its memo entry (key bytes + map
	// slot) against the governor.
	if err := b.gov.Nodes(1, int64(len(n.runs))*8+nodeOverheadBytes); err != nil {
		return 0, err
	}
	id := ref(len(b.nodes))
	b.nodes = append(b.nodes, n)
	if memo != nil {
		if err := b.gov.Memo(1, int64(len(key))+memoOverheadBytes); err != nil {
			return 0, err
		}
		memo[key] = id
	}
	return id, nil
}

// Estimated per-entry heap costs used by the governor's byte accounting.
// A node charges len(runs)*8 + nodeOverheadBytes: its runs, and for the
// rest what building the node allocates besides them — its header in the
// node slice (with the garbage that slice's growth leaves), and under
// ShareSiblings the child memo. Its class rule lists live on the builder's
// stack and leave no garbage. Solved for against measured peak HeapAlloc
// (GC percent 20) on deadline-bounded ACL-family builds, the constant comes
// to 95–155 B per node at 10k rules and 131–174 B at 100k, so 256 runs the
// estimate 7–24 % over the measured peak: trips come early, not late. A
// memo entry charges its key bytes plus memoOverheadBytes for the map slot.
// buildgov's TestEstimateAccuracyAtScale holds the estimate to its band.
const (
	nodeOverheadBytes = 256
	memoOverheadBytes = 64
)

// signature produces the sharing key for a sub-space: the bit position plus
// each intersecting rule's identity and box-relative clipped span along the
// cut dimension. Two sub-spaces with equal signatures have identical
// sub-trees: all boxes at one bit position are translates of the same
// shape, lookups index children by key-bit extraction (box-independent),
// and the relative geometry fixes every later cut decision. The other
// dimensions need no bytes: those before the cut dimension are single
// points the rule covers (clip 0, 0) and those after it are whole, so the
// clip is the rule's own span — both fixed by pos and the rule's identity.
// The result is the builder's reused scratch, which the next signature
// overwrites.
func (b *builder) signature(pos uint, box rules.Box, ruleIdx []int32) []byte {
	d := dimOfBit(pos)
	sig := binary.AppendUvarint(b.sig[:0], uint64(pos))
	for _, ri := range ruleIdx {
		clip, _ := b.boxes[ri][d].Intersect(box[d])
		sig = binary.AppendUvarint(sig, uint64(ri))
		sig = binary.AppendUvarint(sig, uint64(clip.Lo-box[d].Lo))
		sig = binary.AppendUvarint(sig, uint64(clip.Hi-box[d].Lo))
	}
	b.sig = sig
	return sig
}

// dimOfBit returns the dimension owning key bit position pos.
func dimOfBit(pos uint) rules.Dim {
	for d := 0; d < rules.NumDims; d++ {
		if pos < rules.DimOffset[d]+rules.DimBits[d] {
			return rules.Dim(d)
		}
	}
	panic(fmt.Sprintf("expcuts: bit position %d beyond key", pos))
}

// Classify is the native (untraced) lookup, walking the compressed arena
// from its wide root: per visited node one line load (run bits, CPA base,
// key position), a shift-and-mask key chunk, a popcount rank, and one CPA
// pointer load.
func (t *Tree) Classify(h rules.Header) int {
	hi, lo := h.Key().Words()
	st := t.step()
	nodes, cpa := t.ar.nodes, t.ar.cpa
	r := t.ar.wide.at(hi)
	for r >= 0 {
		nd := &nodes[r]
		kw := hi
		if nd.pos >= 64 {
			kw = lo
		}
		r = cpa[st.cpaIndex(nd, kw)]
	}
	return decodeRef(r)
}

// stepper holds the per-tree constants of one arena visit.
type stepper struct {
	top  uint   // 64 - w
	mask uint32 // 2^w - 1
}

func (t *Tree) step() stepper {
	return stepper{top: 64 - t.cfg.StrideW, mask: 1<<t.cfg.StrideW - 1}
}

// chunk extracts the w key bits at position pos from kw, the key word that
// holds them (Key.Words()[pos/64]). The stride divides 64, so a chunk never
// straddles the two words: one shift and mask.
func (st stepper) chunk(pos uint8, kw uint64) uint32 {
	return uint32(kw>>((st.top-uint(pos))&63)) & st.mask
}

// Name identifies the algorithm in reports.
func (t *Tree) Name() string { return "ExpCuts" }

// Stats returns build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// MemoryBytes returns the aggregated (HABS/CPA) serialized footprint.
func (t *Tree) MemoryBytes() int { return t.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (t *Tree) Image() *memlayout.Image { return t.image }

// Depth returns the explicit tree depth ⌈104/w⌉.
func (t *Tree) Depth() int { return int((rules.KeyBits + t.cfg.StrideW - 1) / t.cfg.StrideW) }

// StageFill snapshots the cumulative per-stage fill of the pipelined batch
// walk since the tree was built. Element l > 0 is the number of node visits
// made at original tree level l (key bits l*w .. l*w+w-1) across all
// ClassifyBatchPipelined calls; a packet whose path had its level-l node
// elided as single-child does not count there. Element 0 is every packet
// that entered a walk, whether or not the root itself was elided, so
// dividing by it gives per-stage occupancy — the software mirror of stage
// load on a hardware pipeline — and the sum over levels divided by it the
// mean visits per packet. Occupancy is not monotone in l: a level many
// paths skip can be followed by one they all visit. Safe to call
// concurrently with serving.
func (t *Tree) StageFill() []uint64 {
	out := make([]uint64, len(t.stageFill))
	for i := range t.stageFill {
		out[i] = t.stageFill[i].Load()
	}
	return out
}

func (t *Tree) collectStats() {
	st := &t.stats
	st.Depth = t.Depth()
	st.NodesPerLevel = make([]int, st.Depth)
	st.Nodes = len(t.nodes)
	st.WorstCaseAccesses = 2 * st.Depth
	uniqueTotal := 0
	cells := 1 << t.cfg.StrideW
	// seen[r+off] == id+1 once node id counted child r; refs run from the
	// last rule leaf, -(rules+1), up to the last node.
	off := t.rs.Len() + 1
	seen := make([]int32, off+len(t.nodes))
	for id, n := range t.nodes {
		st.NodesPerLevel[n.level]++
		for _, r := range n.runs {
			if i := int(r.ref) + off; seen[i] != int32(id+1) {
				seen[i] = int32(id + 1)
				uniqueTotal++
			}
		}
		// Full: the raw 2^w pointer array. The aggregated count is the
		// serialized image's, set by serialize.
		st.MemoryWordsFull += cells
	}
	if st.Nodes > 0 {
		st.AvgUniqueChildren = float64(uniqueTotal) / float64(st.Nodes)
	}
}
