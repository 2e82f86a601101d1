// Package cuttree is the cutting-tree core of HiCuts (Gupta & McKeown,
// Hot Interconnects 1999) and HyperCuts (Singh, Baboescu, Varghese & Wang,
// SIGCOMM 2003): the recursive build with its sibling aggregation, the
// binth leaves, the SRAM layout, the serialized lookup and the native
// walk. The two algorithms differ only in Config.Pick, the choice of the
// dimensions a node cuts: HiCuts cuts one, HyperCuts up to two at once.
//
// Each internal node cuts its box into equal-width cells along its cut
// dimensions, growing the cut counts round-robin while the space measure
// Σ(child rule counts) + cells stays within SpFac × (rules at node) and
// the cells stay within MaxCells; each leaf holds at most binth rules that
// are linearly searched. All boxes are power-of-two aligned (the root is
// the full domain and every cut divides a box into a power-of-two number
// of equal cells), so a child index is computed box-independently as
// (value >> log2(cellWidth)) & (cells-1), the first cut dimension most
// significant. Sibling cells whose rule lists have identical cell-relative
// geometry share one child node, which is the pointer aggregation of the
// paper's Figure 2 in a form that is provably safe.
package cuttree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/buildgov"
	"repro/internal/memlayout"
	"repro/internal/rules"
)

// HardMaxDepth is the recursion ceiling enforced independently of the
// configured MaxDepth. Every cut halves at least one dimension of a box,
// so a correct build over the 104-bit space can never recurse deeper than
// rules.KeyBits levels; crossing this bound means a degenerate rule set
// or configuration has defeated the leaf conditions, and the build
// returns ErrDepthExceeded instead of growing the stack without bound.
const HardMaxDepth = rules.KeyBits

// ErrDepthExceeded reports a build that recursed past HardMaxDepth.
var ErrDepthExceeded = errors.New("cutting tree: recursion exceeded hard depth limit")

// MaxCutDims is the number of dimensions one node may cut simultaneously.
const MaxCutDims = 2

// Pick chooses the dimensions a node cuts, in cut order, from the number
// of distinct clipped rule projections along each dimension (0 where the
// node's box is a single point) and the box. n == 0 means no dimension
// separates the rules, and the node becomes a leaf.
type Pick func(distinct *[rules.NumDims]int, box *rules.Box) (dims [MaxCutDims]rules.Dim, n int)

// Config parameterizes one build; the hicuts and hypercuts packages fill
// it from their own configurations.
type Config struct {
	// Name identifies the algorithm in reports and errors.
	Name string
	Pick Pick
	// Binth is the leaf threshold: nodes with at most Binth rules become
	// leaves.
	Binth int
	// SpFac bounds per-node fan-out through the space measure.
	SpFac float64
	// MaxCells caps the cells (product over cut dimensions) of one node.
	MaxCells int
	// MaxDepth is a safety cap on tree depth: nodes there become leaves.
	MaxDepth int
	// PruneCovered enables rule-overlap elimination: once a rule fully
	// covers a node's box, lower-priority rules are dropped there.
	PruneCovered bool
	// Channels is the number of SRAM channels the serialized tree is
	// spread across (1..4).
	Channels int
	// Headroom weights the channel allocation.
	Headroom memlayout.Headroom
}

func (c *Config) validate() error {
	p := strings.ToLower(c.Name)
	switch {
	case c.Binth < 1:
		return fmt.Errorf("%s: binth must be >= 1, got %d", p, c.Binth)
	case c.SpFac < 1:
		return fmt.Errorf("%s: spfac must be >= 1, got %v", p, c.SpFac)
	case c.MaxCells < 2 || bits.OnesCount(uint(c.MaxCells)) != 1:
		return fmt.Errorf("%s: cell cap must be a power of two >= 2, got %d", p, c.MaxCells)
	case c.Channels < 1 || c.Channels > memlayout.NumChannels:
		return fmt.Errorf("%s: channels %d out of [1,%d]", p, c.Channels, memlayout.NumChannels)
	}
	return nil
}

// cut is one cut dimension of a node. The zero cut is one cell wide, so
// a node cutting one dimension carries a zero second cut and its cell
// count, cell indices and header word need no case of their own.
type cut struct {
	dim    uint8 // a rules.Dim
	log2nc uint8 // log2 of the cells along dim
	log2cw uint8 // log2 of the cell width along dim
}

// node is one decision-tree node. The fields the native walk reads at an
// internal node come first, in its first 32 bytes.
type node struct {
	leaf     bool
	ncuts    uint8
	cuts     [MaxCutDims]cut
	children []*node // one per cell; aggregated siblings share pointers

	ruleIdx []int // leaf: rules to linearly search, priority order

	// Serialization bookkeeping.
	addr    uint32
	channel uint8
	placed  bool
}

// log2cells is log2 of the node's total cell count.
func (n *node) log2cells() uint {
	return uint(n.cuts[0].log2nc) + uint(n.cuts[1].log2nc)
}

// BuildStats reports tree shape and cost metrics.
type BuildStats struct {
	// Nodes and Leaves count unique tree nodes (shared children counted
	// once).
	Nodes, Leaves int
	// MaxDepth is the deepest leaf.
	MaxDepth int
	// MaxLeafRules is the largest leaf rule list (≤ binth unless a leaf
	// was forced by the depth cap or inseparable rules).
	MaxLeafRules int
	// MultiDimNodes counts nodes cutting two dimensions at once.
	MultiDimNodes int
	// WorstCaseAccesses bounds SRAM commands per lookup: two per tree
	// level plus one per leaf rule.
	WorstCaseAccesses int
	// MemoryWords is the serialized SRAM footprint in 32-bit words.
	MemoryWords int
}

// Tree is a built cutting tree.
type Tree struct {
	cfg   Config
	rs    *rules.RuleSet
	root  *node
	stats BuildStats

	image    *memlayout.Image
	rootPtr  uint32
	ruleCh   uint8
	ruleBase uint32
}

// builder is the construction state of one build, dropped when it ends.
// Its scratch is reused across nodes: the per-cell rule-list offsets are
// a stack with one frame per node on the recursion path, and the
// aggregation maps are one per depth.
type builder struct {
	t     *Tree
	gov   *buildgov.Governor
	boxes []rules.Box // rule boxes, indexed like rs.Rules
	spans []uint64    // one dimension's clipped projections, Lo<<32 | Hi
	sig   []byte
	offs  []int
	share []map[string]*node
}

// New builds a cutting tree over the rule set and serializes it. Every
// recursion step checks ctx and charges nodes and estimated bytes against
// budget (nil = ctx only), so an adversarial rule set aborts the build
// with a typed *buildgov.BudgetError in bounded time instead of hanging
// the caller.
func New(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, rs: rs}
	b := &builder{t: t, gov: buildgov.Start(ctx, budget), boxes: rs.Boxes()}
	all := make([]int, rs.Len())
	for i := range all {
		all[i] = i
	}
	root, err := b.build(rules.FullBox(), all, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	if err := t.serialize(); err != nil {
		return nil, err
	}
	t.stats.MemoryWords = t.image.TotalWords()
	return t, nil
}

// build recursively constructs the subtree for box holding ruleIdx (in
// priority order, all intersecting box).
func (b *builder) build(box rules.Box, ruleIdx []int, depth int) (*node, error) {
	t := b.t
	if depth > HardMaxDepth {
		return nil, fmt.Errorf("%w: %s depth %d on rule set %q", ErrDepthExceeded, t.cfg.Name, depth, t.rs.Name)
	}
	if err := b.gov.Check(); err != nil {
		return nil, err
	}
	if t.cfg.PruneCovered {
		for k, ri := range ruleIdx {
			if b.boxes[ri].Covers(box) {
				ruleIdx = ruleIdx[:k+1]
				break
			}
		}
	}
	if len(ruleIdx) <= t.cfg.Binth || depth >= t.cfg.MaxDepth {
		return b.leaf(ruleIdx, depth)
	}
	n := &node{}
	if !b.chooseCuts(n, &box, ruleIdx) {
		// No dimension separates the rules (identical projections
		// everywhere): linear search is all that is left.
		return b.leaf(ruleIdx, depth)
	}
	cells := 1 << n.log2cells()
	// Charge the internal node: child pointer array plus the rule-index
	// lists of the distribution below.
	if err := b.gov.Nodes(1, int64(cells)*8+int64(len(ruleIdx))*8+nodeOverheadBytes); err != nil {
		return nil, err
	}
	b.count(depth)
	if n.ncuts > 1 {
		t.stats.MultiDimNodes++
	}
	n.children = make([]*node, cells)
	lists, base := b.distribute(n, &box, ruleIdx)
	if len(b.share) <= depth {
		b.share = append(b.share, make(map[string]*node))
	}
	shared := b.share[depth]
	clear(shared)
	lo := 0
	for c := range cells {
		hi := b.offs[base+c]
		cellRules := lists[lo:hi:hi]
		lo = hi
		cellBox := n.cellBox(box, c)
		if child, ok := shared[string(b.signature(n, &cellBox, cellRules))]; ok {
			n.children[c] = child
			continue
		}
		key := string(b.sig) // the recursion reuses b.sig
		child, err := b.build(cellBox, cellRules, depth+1)
		if err != nil {
			return nil, err
		}
		shared[key] = child
		n.children[c] = child
	}
	b.offs = b.offs[:base]
	return n, nil
}

// leaf builds a leaf node, charging it against the governor.
func (b *builder) leaf(ruleIdx []int, depth int) (*node, error) {
	if err := b.gov.Nodes(1, int64(len(ruleIdx))*8+nodeOverheadBytes); err != nil {
		return nil, err
	}
	b.count(depth)
	s := &b.t.stats
	s.Leaves++
	s.MaxLeafRules = max(s.MaxLeafRules, len(ruleIdx))
	s.WorstCaseAccesses = max(s.WorstCaseAccesses, 2*depth+3+len(ruleIdx))
	return &node{leaf: true, ruleIdx: ruleIdx}, nil
}

// count adds one unique node at depth to the stats: the build creates
// each node once, since only siblings share.
func (b *builder) count(depth int) {
	b.t.stats.Nodes++
	b.t.stats.MaxDepth = max(b.t.stats.MaxDepth, depth)
}

// nodeOverheadBytes estimates the fixed per-node heap overhead charged to
// the governor alongside the variable-size arrays.
const nodeOverheadBytes = 96

// chooseCuts sets n's cuts: the dimensions Pick chooses from the distinct
// clipped projections, each starting at two cells, grown round-robin one
// doubling at a time while the cells stay within MaxCells and the space
// measure within SpFac × rules. It reports false when Pick chooses none.
func (b *builder) chooseCuts(n *node, box *rules.Box, ruleIdx []int) bool {
	var distinct [rules.NumDims]int
	for d := range distinct {
		if box[d].Size() < 2 {
			continue
		}
		b.spans = b.spans[:0]
		for _, ri := range ruleIdx {
			if clip, ok := b.boxes[ri][d].Intersect(box[d]); ok {
				b.spans = append(b.spans, uint64(clip.Lo)<<32|uint64(clip.Hi))
			}
		}
		// Sorted, equal projections are adjacent; a reused hash set would
		// be cleared at the root's size at every node.
		slices.Sort(b.spans)
		for i, sp := range b.spans {
			if i == 0 || sp != b.spans[i-1] {
				distinct[d]++
			}
		}
	}
	dims, k := b.t.cfg.Pick(&distinct, box)
	if k == 0 {
		return false
	}
	n.ncuts = uint8(k)
	for i, d := range dims[:k] {
		n.cuts[i] = cut{dim: uint8(d), log2nc: 1, log2cw: uint8(bits.TrailingZeros64(box[d].Size()) - 1)}
	}
	// An integer space measure exceeds SpFac × rules exactly when it
	// exceeds the product's floor.
	limit := int(b.t.cfg.SpFac * float64(len(ruleIdx)))
	for grew := true; grew; {
		grew = false
		for i := range n.cuts[:k] {
			prev := n.cuts[i]
			if uint64(1)<<(prev.log2nc+1) > box[prev.dim].Size() {
				continue
			}
			n.cuts[i].log2nc++
			n.cuts[i].log2cw--
			if 1<<n.log2cells() > b.t.cfg.MaxCells || b.spaceMeasure(n, box, ruleIdx, limit) > limit {
				n.cuts[i] = prev
				continue
			}
			grew = true
		}
	}
	return true
}

// spaceMeasure computes Σ over cells of the rule count, plus the cell
// count, without materializing cell lists. It stops early once the sum
// passes limit.
func (b *builder) spaceMeasure(n *node, box *rules.Box, ruleIdx []int, limit int) int {
	total := 1 << n.log2cells()
	for _, ri := range ruleIdx {
		r := n.cellRanges(&b.boxes[ri], box)
		total += (r[0][1] - r[0][0] + 1) * (r[1][1] - r[1][0] + 1)
		if total > limit {
			break
		}
	}
	return total
}

// distribute sorts ruleIdx into n's cells, keeping priority order within
// each cell. The lists share one array; cell c's list ends at
// b.offs[base+c] and starts where cell c-1's ends (cell 0's at 0). The
// caller pops the frame by truncating b.offs to base.
func (b *builder) distribute(n *node, box *rules.Box, ruleIdx []int) (lists []int, base int) {
	base = len(b.offs)
	cells := 1 << n.log2cells()
	for range cells + 1 {
		b.offs = append(b.offs, 0)
	}
	offs := b.offs[base:]
	sh := n.cuts[1].log2nc
	// Count each cell's rules into offs[c+1], prefix-sum so offs[c] is
	// where cell c starts, then fill with offs[c] as the cursor: it ends
	// where the cell ends.
	total := 0
	for _, ri := range ruleIdx {
		r := n.cellRanges(&b.boxes[ri], box)
		for i := r[0][0]; i <= r[0][1]; i++ {
			for j := r[1][0]; j <= r[1][1]; j++ {
				offs[(i<<sh|j)+1]++
				total++
			}
		}
	}
	for c := 1; c <= cells; c++ {
		offs[c] += offs[c-1]
	}
	lists = make([]int, total)
	for _, ri := range ruleIdx {
		r := n.cellRanges(&b.boxes[ri], box)
		for i := r[0][0]; i <= r[0][1]; i++ {
			for j := r[1][0]; j <= r[1][1]; j++ {
				cell := i<<sh | j
				lists[offs[cell]] = ri
				offs[cell]++
			}
		}
	}
	return lists, base
}

// cellRanges returns, per cut, the inclusive range of cell indices the
// rule box overlaps within box; a zero cut's range is [0, 0].
func (n *node) cellRanges(rule, box *rules.Box) (r [MaxCutDims][2]int) {
	for i := range n.cuts[:n.ncuts] {
		c := &n.cuts[i]
		clip, ok := rule[c.dim].Intersect(box[c.dim])
		if !ok {
			// Every rule at a node overlaps its box; defensive fallback.
			r[i] = [2]int{0, -1}
			continue
		}
		r[i][0] = int(uint64(clip.Lo-box[c.dim].Lo) >> c.log2cw)
		r[i][1] = min(int(uint64(clip.Hi-box[c.dim].Lo)>>c.log2cw), 1<<c.log2nc-1)
	}
	return r
}

// cellBox returns the box of cell c (row-major over the cuts, the first
// cut most significant).
func (n *node) cellBox(box rules.Box, c int) rules.Box {
	out := box
	for i := int(n.ncuts) - 1; i >= 0; i-- {
		k := n.cuts[i]
		ci := uint64(c) & (1<<k.log2nc - 1)
		c >>= k.log2nc
		out[k.dim] = rules.Span{
			Lo: box[k.dim].Lo + uint32(ci<<k.log2cw),
			Hi: box[k.dim].Lo + uint32((ci+1)<<k.log2cw) - 1,
		}
	}
	return out
}

// signature encodes the cell-relative geometry of a cell's rules along the
// cut dimensions into b.sig: cells with equal signatures have equal
// subtrees, since the other dimensions of their boxes are the parent's.
func (b *builder) signature(n *node, cellBox *rules.Box, cellRules []int) []byte {
	b.sig = b.sig[:0]
	for _, ri := range cellRules {
		b.sig = binary.AppendUvarint(b.sig, uint64(ri))
		for _, c := range n.cuts[:n.ncuts] {
			clip, _ := b.boxes[ri][c.dim].Intersect(cellBox[c.dim])
			b.sig = binary.AppendUvarint(b.sig, uint64(clip.Lo-cellBox[c.dim].Lo))
			b.sig = binary.AppendUvarint(b.sig, uint64(clip.Hi-cellBox[c.dim].Lo))
		}
	}
	return b.sig
}

// Classify walks the in-memory tree: the native (untraced) lookup.
func (t *Tree) Classify(h rules.Header) int {
	f := [rules.NumDims]uint32{h.SrcIP, h.DstIP, uint32(h.SrcPort), uint32(h.DstPort), uint32(h.Proto)}
	n := t.root
	for !n.leaf {
		c := &n.cuts[0]
		idx := f[c.dim] >> c.log2cw & (1<<c.log2nc - 1)
		if n.ncuts > 1 {
			c = &n.cuts[1]
			idx = idx<<c.log2nc | f[c.dim]>>c.log2cw&(1<<c.log2nc-1)
		}
		n = n.children[idx]
	}
	for _, ri := range n.ruleIdx {
		if t.rs.Rules[ri].Matches(h) {
			return ri
		}
	}
	return -1
}

// ClassifyBatch classifies hs[i] into out[i] (the rules.BatchClassifier
// contract; out must be at least as long as hs). Cutting trees have
// data-dependent depth, so packets cannot be advanced level-synchronously
// the way fixed-stride ExpCuts batches are; the win here is amortized
// dispatch — one call, zero allocations, answers identical to Classify.
func (t *Tree) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = t.Classify(h)
	}
}

// Name identifies the algorithm in reports.
func (t *Tree) Name() string { return t.cfg.Name }

// Stats returns build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// MemoryBytes returns the serialized SRAM footprint.
func (t *Tree) MemoryBytes() int { return t.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (t *Tree) Image() *memlayout.Image { return t.image }
