// Package hicuts implements Hierarchical Intelligent Cuttings (Gupta &
// McKeown, Hot Interconnects 1999), the field-dependent decision-tree
// baseline the paper builds ExpCuts from. HiCuts preprocesses the rule set
// into a decision tree: each internal node cuts its box into equal-width
// cells along one heuristically chosen dimension, and each leaf holds at
// most binth rules that are linearly searched.
//
// The two HiCuts properties the paper criticizes — variable tree depth
// (implicit worst-case search time) and up-to-binth 6-word rule reads per
// leaf — fall directly out of this construction and are visible in the
// serialized access programs.
//
// All boxes are power-of-two aligned (the root is the full domain and every
// cut divides a box into a power-of-two number of equal cells), so a child
// index is computed box-independently as (value >> log2(cellWidth)) &
// (cells-1). Sibling cells whose rule lists have identical cell-relative
// geometry share one child node, which is the pointer aggregation of the
// paper's Figure 2 in a form that is provably safe.
package hicuts

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

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
var ErrDepthExceeded = errors.New("hicuts: recursion exceeded hard depth limit")

// Config parameterizes tree construction.
type Config struct {
	// Binth is the leaf threshold: nodes with at most Binth rules become
	// leaves. The paper's experiments use 8.
	Binth int
	// SpFac is the space-measure factor bounding cut fan-out: the number
	// of cuts at a node is grown while
	// Σ(child rule counts) + cuts <= SpFac × (rules at node).
	SpFac float64
	// MaxCuts caps the number of cuts at one node.
	MaxCuts int
	// MaxDepth is a safety cap on tree depth.
	MaxDepth int
	// PruneCovered enables the rule-overlap elimination refinement: once
	// a rule fully covers a node's box, lower-priority rules are dropped
	// there. The paper's HiCuts baseline does plain binth-bounded leaves,
	// so this defaults to off; it is required for small binth values
	// (binth <= 2), where the unpruned tree explodes.
	PruneCovered bool
	// Channels is the number of SRAM channels the serialized tree is
	// spread across (1..4).
	Channels int
	// Headroom weights the channel allocation (defaults to uniform).
	Headroom memlayout.Headroom
}

// DefaultConfig matches the paper's HiCuts configuration: binth = 8,
// space factor 4, four SRAM channels.
func DefaultConfig() Config {
	return Config{
		Binth:    8,
		SpFac:    4.0,
		MaxCuts:  64,
		MaxDepth: 48,
		Channels: memlayout.NumChannels,
		Headroom: memlayout.UniformHeadroom,
	}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.Binth == 0 {
		c.Binth = d.Binth
	}
	if c.SpFac == 0 {
		c.SpFac = d.SpFac
	}
	if c.MaxCuts == 0 {
		c.MaxCuts = d.MaxCuts
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.Channels == 0 {
		c.Channels = d.Channels
	}
	if c.Headroom == (memlayout.Headroom{}) {
		c.Headroom = d.Headroom
	}
	if c.Binth < 1 {
		return fmt.Errorf("hicuts: binth must be >= 1, got %d", c.Binth)
	}
	if c.SpFac < 1 {
		return fmt.Errorf("hicuts: spfac must be >= 1, got %v", c.SpFac)
	}
	if c.MaxCuts < 2 || bits.OnesCount(uint(c.MaxCuts)) != 1 {
		return fmt.Errorf("hicuts: maxcuts must be a power of two >= 2, got %d", c.MaxCuts)
	}
	if c.Channels < 1 || c.Channels > memlayout.NumChannels {
		return fmt.Errorf("hicuts: channels %d out of [1,%d]", c.Channels, memlayout.NumChannels)
	}
	return nil
}

// node is one decision-tree node.
type node struct {
	depth int

	// Internal node fields.
	dim      rules.Dim
	log2cw   uint    // log2 of cell width along dim
	log2nc   uint    // log2 of number of cells
	children []*node // len 1<<log2nc; aggregated siblings share pointers

	// Leaf fields.
	leaf    bool
	ruleIdx []int // rules to linearly search, priority order

	// Serialization bookkeeping.
	addr    uint32
	channel uint8
	placed  bool
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
	// WorstCaseAccesses bounds SRAM commands per lookup: two per tree
	// level plus one per leaf rule.
	WorstCaseAccesses int
	// MemoryWords is the serialized SRAM footprint in 32-bit words.
	MemoryWords int
}

// Tree is a built HiCuts classifier.
type Tree struct {
	cfg   Config
	rs    *rules.RuleSet
	gov   *buildgov.Governor
	root  *node
	stats BuildStats

	image    *memlayout.Image
	rootPtr  uint32
	ruleCh   uint8
	ruleBase uint32
}

// hbuilder is the construction state of one build: the chooseDim scratch
// map, kept apart from the Tree, whose governor bounds the build's total
// consumption.
type hbuilder struct {
	t *Tree
	// dimSeen is chooseDim's distinct-projection scratch, hoisted here so
	// the build allocates it once instead of once per dimension per node.
	dimSeen map[rules.Span]bool
}

// New builds a HiCuts tree over the rule set and serializes it.
func New(rs *rules.RuleSet, cfg Config) (*Tree, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: every recursion step checks ctx and
// charges nodes and estimated bytes against budget (nil = ctx only), so
// an adversarial rule set aborts the build with a typed
// *buildgov.BudgetError in bounded time instead of hanging the caller.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, rs: rs, gov: buildgov.Start(ctx, budget)}
	all := make([]int, rs.Len())
	for i := range all {
		all[i] = i
	}
	hb := &hbuilder{t: t}
	root, err := hb.build(rules.FullBox(), all, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.collectStats()
	if err := t.serialize(); err != nil {
		return nil, err
	}
	t.stats.MemoryWords = t.image.TotalWords()
	return t, nil
}

// build recursively constructs the subtree for box holding ruleIdx (in
// priority order, all intersecting box).
func (b *hbuilder) build(box rules.Box, ruleIdx []int, depth int) (*node, error) {
	t := b.t
	if depth > HardMaxDepth {
		return nil, fmt.Errorf("%w: depth %d on rule set %q", ErrDepthExceeded, depth, t.rs.Name)
	}
	if err := t.gov.Check(); err != nil {
		return nil, err
	}
	if t.cfg.PruneCovered {
		// Rule overlap elimination: once a rule fully covers the node's
		// box, no lower-priority rule can ever win inside it, so the
		// list is truncated there.
		for k, ri := range ruleIdx {
			if t.rs.Rules[ri].Box().Covers(box) {
				ruleIdx = ruleIdx[:k+1]
				break
			}
		}
	}
	if len(ruleIdx) <= t.cfg.Binth || depth >= t.cfg.MaxDepth {
		return t.leaf(ruleIdx, depth)
	}
	dim, ok := b.chooseDim(box, ruleIdx)
	if !ok {
		// No dimension separates the rules (identical projections
		// everywhere): linear search is all that is left.
		return t.leaf(ruleIdx, depth)
	}
	log2nc := b.chooseCuts(box, ruleIdx, dim)
	nc := 1 << log2nc
	size := box[dim].Size()
	cw := size >> log2nc
	log2cw := uint(bits.TrailingZeros64(cw))

	// Distribute rules to cells.
	cells := make([][]int, nc)
	for _, ri := range ruleIdx {
		lo, hi := cellRange(t.rs.Rules[ri].Span(rules.Dim(dim)), box[dim], log2cw, nc)
		for c := lo; c <= hi; c++ {
			cells[c] = append(cells[c], ri)
		}
	}

	n := &node{depth: depth, dim: dim, log2cw: log2cw, log2nc: log2nc,
		children: make([]*node, nc)}
	// Charge the internal node: child pointer array plus the rule-index
	// slices held by the distribution above.
	if err := t.gov.Nodes(1, int64(nc)*8+int64(len(ruleIdx))*8+nodeOverheadBytes); err != nil {
		return nil, err
	}
	// Aggregate siblings with identical cell-relative rule geometry.
	shared := make(map[string]*node)
	var sig []byte
	for c := 0; c < nc; c++ {
		cellBox := box
		cellBox[dim] = rules.Span{
			Lo: box[dim].Lo + uint32(uint64(c)<<log2cw),
			Hi: box[dim].Lo + uint32(uint64(c+1)<<log2cw) - 1,
		}
		sig = sig[:0]
		for _, ri := range cells[c] {
			clip, _ := t.rs.Rules[ri].Span(rules.Dim(dim)).Intersect(cellBox[dim])
			sig = binary.AppendUvarint(sig, uint64(ri))
			sig = binary.AppendUvarint(sig, uint64(clip.Lo-cellBox[dim].Lo))
			sig = binary.AppendUvarint(sig, uint64(clip.Hi-cellBox[dim].Lo))
		}
		key := string(sig)
		if child, ok := shared[key]; ok {
			n.children[c] = child
			continue
		}
		child, err := b.build(cellBox, cells[c], depth+1)
		if err != nil {
			return nil, err
		}
		shared[key] = child
		n.children[c] = child
	}
	return n, nil
}

// leaf builds a leaf node, charging it against the governor.
func (t *Tree) leaf(ruleIdx []int, depth int) (*node, error) {
	if err := t.gov.Nodes(1, int64(len(ruleIdx))*8+nodeOverheadBytes); err != nil {
		return nil, err
	}
	return &node{leaf: true, ruleIdx: ruleIdx, depth: depth}, nil
}

// nodeOverheadBytes estimates the fixed per-node heap overhead charged to
// the governor alongside the variable-size arrays.
const nodeOverheadBytes = 96

// chooseDim picks the dimension with the most distinct clipped rule
// projections (ties broken toward the wider box span), the standard HiCuts
// heuristic. ok is false when no dimension has at least two distinct
// projections over a box wide enough to cut.
func (b *hbuilder) chooseDim(box rules.Box, ruleIdx []int) (rules.Dim, bool) {
	best := -1
	bestDistinct := 1
	var bestSize uint64
	if b.dimSeen == nil {
		b.dimSeen = make(map[rules.Span]bool, len(ruleIdx))
	}
	seen := b.dimSeen
	for d := 0; d < rules.NumDims; d++ {
		if box[d].Size() < 2 {
			continue
		}
		clear(seen)
		for _, ri := range ruleIdx {
			clip, ok := b.t.rs.Rules[ri].Span(rules.Dim(d)).Intersect(box[d])
			if !ok {
				continue
			}
			seen[clip] = true
		}
		distinct := len(seen)
		size := box[d].Size()
		if distinct > bestDistinct || (distinct == bestDistinct && best >= 0 && size > bestSize) {
			best, bestDistinct, bestSize = d, distinct, size
		}
	}
	if best < 0 {
		return 0, false
	}
	return rules.Dim(best), true
}

// chooseCuts grows the cut count while the space measure
// Σ(child counts) + cuts stays within SpFac × n, returning log2(cuts).
func (b *hbuilder) chooseCuts(box rules.Box, ruleIdx []int, dim rules.Dim) uint {
	size := box[dim].Size()
	budget := b.t.cfg.SpFac * float64(len(ruleIdx))
	log2nc := uint(1)
	for {
		next := log2nc + 1
		if uint64(1)<<next > uint64(b.t.cfg.MaxCuts) || uint64(1)<<next > size {
			break
		}
		if b.spaceMeasure(box, ruleIdx, dim, next) > budget {
			break
		}
		log2nc = next
	}
	return log2nc
}

// spaceMeasure computes Σ over cells of the rule count, plus the cut count,
// without materializing cell lists.
func (b *hbuilder) spaceMeasure(box rules.Box, ruleIdx []int, dim rules.Dim, log2nc uint) float64 {
	nc := 1 << log2nc
	log2cw := uint(bits.TrailingZeros64(box[dim].Size() >> log2nc))
	total := float64(nc)
	for _, ri := range ruleIdx {
		lo, hi := cellRange(b.t.rs.Rules[ri].Span(dim), box[dim], log2cw, nc)
		total += float64(hi - lo + 1)
	}
	return total
}

// cellRange returns the inclusive range of cell indices a rule span overlaps
// within a box cut into nc cells of width 1<<log2cw.
func cellRange(ruleSpan, boxSpan rules.Span, log2cw uint, nc int) (int, int) {
	clip, ok := ruleSpan.Intersect(boxSpan)
	if !ok {
		// Caller guarantees overlap; defensive fallback.
		return 0, -1
	}
	lo := int(uint64(clip.Lo-boxSpan.Lo) >> log2cw)
	hi := int(uint64(clip.Hi-boxSpan.Lo) >> log2cw)
	if hi >= nc {
		hi = nc - 1
	}
	return lo, hi
}

// Classify walks the in-memory tree: the native (untraced) lookup.
func (t *Tree) Classify(h rules.Header) int {
	n := t.root
	for !n.leaf {
		idx := (h.Field(n.dim) >> n.log2cw) & uint32(1<<n.log2nc-1)
		n = n.children[idx]
	}
	for _, ri := range n.ruleIdx {
		if t.rs.Rules[ri].Matches(h) {
			return ri
		}
	}
	return -1
}

// ClassifyBatch classifies hs[i] into out[i] (the engine's
// BatchClassifier contract; out must be at least as long as hs). HiCuts
// trees have data-dependent depth, so packets cannot be advanced
// level-synchronously the way fixed-stride ExpCuts batches are; the win
// here is amortized dispatch — one call, zero allocations, answers
// identical to Classify.
func (t *Tree) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = t.Classify(h)
	}
}

// Name identifies the algorithm in reports.
func (t *Tree) Name() string { return "HiCuts" }

// Stats returns build statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// MemoryBytes returns the serialized SRAM footprint.
func (t *Tree) MemoryBytes() int { return t.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (t *Tree) Image() *memlayout.Image { return t.image }

func (t *Tree) collectStats() {
	seen := make(map[*node]bool)
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if seen[n] {
			return
		}
		seen[n] = true
		if depth > t.stats.MaxDepth {
			t.stats.MaxDepth = depth
		}
		t.stats.Nodes++
		if n.leaf {
			t.stats.Leaves++
			if len(n.ruleIdx) > t.stats.MaxLeafRules {
				t.stats.MaxLeafRules = len(n.ruleIdx)
			}
			if acc := 2*depth + 3 + len(n.ruleIdx); acc > t.stats.WorstCaseAccesses {
				t.stats.WorstCaseAccesses = acc
			}
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
}
