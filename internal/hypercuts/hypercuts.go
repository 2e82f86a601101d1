// Package hypercuts implements HyperCuts (Singh, Baboescu, Varghese &
// Wang, SIGCOMM 2003), the second field-dependent baseline the paper's
// taxonomy cites (§2). Where HiCuts cuts one dimension per node, HyperCuts
// cuts up to two dimensions *simultaneously*, flattening the tree: a node
// with 2^a × 2^b cells replaces two HiCuts levels, trading a wider pointer
// array for a shorter dependent-access chain.
//
// The implementation mirrors internal/hicuts where the algorithms agree
// (power-of-two aligned boxes, box-independent child indexing, safe sibling
// aggregation by cell-relative rule geometry, binth leaves with batched
// record fetch from a shared rule table) and differs in node structure and
// the dimension-selection heuristic (dimensions with above-average distinct
// projections are cut together).
package hypercuts

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

// HardMaxDepth mirrors hicuts.HardMaxDepth: every cut halves at least one
// dimension, so no correct build recurses past rules.KeyBits levels.
const HardMaxDepth = rules.KeyBits

// ErrDepthExceeded reports a build that recursed past HardMaxDepth.
var ErrDepthExceeded = errors.New("hypercuts: recursion exceeded hard depth limit")

// MaxCutDims is the number of dimensions one node may cut simultaneously.
const MaxCutDims = 2

// Config parameterizes tree construction.
type Config struct {
	// Binth is the leaf threshold (rules per leaf linearly searched).
	Binth int
	// SpFac bounds per-node fan-out: cuts grow while
	// Σ(child counts) + cells <= SpFac × rules.
	SpFac float64
	// MaxCells caps the total cells (product over cut dimensions) of one
	// node.
	MaxCells int
	// MaxDepth is a safety cap.
	MaxDepth int
	// PruneCovered enables rule-overlap elimination (HyperCuts includes
	// it by default; it is what keeps multi-dimensional cutting compact).
	PruneCovered *bool
	// Channels is the number of SRAM channels (1..4).
	Channels int
	// Headroom weights the channel allocation.
	Headroom memlayout.Headroom
}

// DefaultConfig mirrors the published configuration: binth = 8, space
// factor 4, overlap pruning on.
func DefaultConfig() Config {
	prune := true
	return Config{
		Binth:        8,
		SpFac:        4.0,
		MaxCells:     256,
		MaxDepth:     48,
		PruneCovered: &prune,
		Channels:     memlayout.NumChannels,
		Headroom:     memlayout.UniformHeadroom,
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
	if c.MaxCells == 0 {
		c.MaxCells = d.MaxCells
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.PruneCovered == nil {
		c.PruneCovered = d.PruneCovered
	}
	if c.Channels == 0 {
		c.Channels = d.Channels
	}
	if c.Headroom == (memlayout.Headroom{}) {
		c.Headroom = d.Headroom
	}
	if c.Binth < 1 {
		return fmt.Errorf("hypercuts: binth must be >= 1, got %d", c.Binth)
	}
	if c.SpFac < 1 {
		return fmt.Errorf("hypercuts: spfac must be >= 1, got %v", c.SpFac)
	}
	if c.MaxCells < 2 || bits.OnesCount(uint(c.MaxCells)) != 1 {
		return fmt.Errorf("hypercuts: maxcells must be a power of two >= 2, got %d", c.MaxCells)
	}
	if c.Channels < 1 || c.Channels > memlayout.NumChannels {
		return fmt.Errorf("hypercuts: channels %d out of [1,%d]", c.Channels, memlayout.NumChannels)
	}
	return nil
}

// cutSpec describes one cut dimension of a node.
type cutSpec struct {
	dim    rules.Dim
	log2nc uint // cells along this dimension
	log2cw uint // cell width along this dimension
}

// node is one tree node.
type node struct {
	depth    int
	cuts     []cutSpec // 1..MaxCutDims entries
	children []*node   // len = product of cells

	leaf    bool
	ruleIdx []int

	addr    uint32
	channel uint8
	placed  bool
}

// cells returns the node's total child-cell count.
func (n *node) cells() int {
	total := 1
	for _, c := range n.cuts {
		total <<= c.log2nc
	}
	return total
}

// BuildStats reports tree shape metrics.
type BuildStats struct {
	Nodes, Leaves     int
	MaxDepth          int
	MaxLeafRules      int
	MultiDimNodes     int // nodes cutting two dimensions at once
	WorstCaseAccesses int
	MemoryWords       int
}

// Tree is a built HyperCuts classifier.
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

	// dimSeen is chooseCuts's distinct-projection scratch, hoisted here so
	// the build allocates it once instead of once per dimension per node.
	dimSeen map[rules.Span]bool
}

// New builds a HyperCuts tree over the rule set and serializes it.
func New(rs *rules.RuleSet, cfg Config) (*Tree, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: every recursion step checks ctx and
// charges nodes and estimated bytes against budget (nil = ctx only), so
// an adversarial rule set aborts the build with a typed
// *buildgov.BudgetError in bounded time.
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
	root, err := t.build(rules.FullBox(), all, 0)
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

func (t *Tree) build(box rules.Box, ruleIdx []int, depth int) (*node, error) {
	if depth > HardMaxDepth {
		return nil, fmt.Errorf("%w: depth %d on rule set %q", ErrDepthExceeded, depth, t.rs.Name)
	}
	if err := t.gov.Check(); err != nil {
		return nil, err
	}
	if *t.cfg.PruneCovered {
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
	cuts := t.chooseCuts(box, ruleIdx)
	if len(cuts) == 0 {
		return t.leaf(ruleIdx, depth)
	}

	n := &node{depth: depth, cuts: cuts}
	total := n.cells()
	n.children = make([]*node, total)
	if err := t.gov.Nodes(1, int64(total)*8+int64(len(ruleIdx))*8+nodeOverheadBytes); err != nil {
		return nil, err
	}

	// Distribute rules: for each rule compute the per-dimension cell
	// ranges and enumerate their cross product.
	cellsRules := make([][]int, total)
	for _, ri := range ruleIdx {
		ranges := make([][2]int, len(cuts))
		for d, c := range cuts {
			lo, hi := cellRange(t.rs.Rules[ri].Span(c.dim), box[c.dim], c.log2cw, 1<<c.log2nc)
			ranges[d] = [2]int{lo, hi}
		}
		forEachCell(ranges, cuts, func(linear int) {
			cellsRules[linear] = append(cellsRules[linear], ri)
		})
	}

	shared := make(map[string]*node)
	var sig []byte
	for cell := 0; cell < total; cell++ {
		cellBox := t.cellBox(box, cuts, cell)
		sig = sig[:0]
		for _, ri := range cellsRules[cell] {
			sig = binary.AppendUvarint(sig, uint64(ri))
			for _, c := range cuts {
				clip, _ := t.rs.Rules[ri].Span(c.dim).Intersect(cellBox[c.dim])
				sig = binary.AppendUvarint(sig, uint64(clip.Lo-cellBox[c.dim].Lo))
				sig = binary.AppendUvarint(sig, uint64(clip.Hi-cellBox[c.dim].Lo))
			}
		}
		key := string(sig)
		if child, ok := shared[key]; ok {
			n.children[cell] = child
			continue
		}
		child, err := t.build(cellBox, cellsRules[cell], depth+1)
		if err != nil {
			return nil, err
		}
		shared[key] = child
		n.children[cell] = child
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

// cellBox returns the box of the linear cell index.
func (t *Tree) cellBox(box rules.Box, cuts []cutSpec, cell int) rules.Box {
	out := box
	// The linear index is row-major over the cut dims: the first cut is
	// the most significant.
	idx := cell
	for d := len(cuts) - 1; d >= 0; d-- {
		c := cuts[d]
		nc := 1 << c.log2nc
		ci := idx & (nc - 1)
		idx >>= c.log2nc
		out[c.dim] = rules.Span{
			Lo: box[c.dim].Lo + uint32(uint64(ci)<<c.log2cw),
			Hi: box[c.dim].Lo + uint32(uint64(ci+1)<<c.log2cw) - 1,
		}
	}
	return out
}

// forEachCell enumerates the cross product of per-dimension cell ranges,
// invoking fn with each linear index (row-major, first cut most
// significant).
func forEachCell(ranges [][2]int, cuts []cutSpec, fn func(linear int)) {
	var rec func(d, acc int)
	rec = func(d, acc int) {
		if d == len(ranges) {
			fn(acc)
			return
		}
		for c := ranges[d][0]; c <= ranges[d][1]; c++ {
			rec(d+1, acc<<cuts[d].log2nc|c)
		}
	}
	rec(0, 0)
}

// chooseCuts picks up to MaxCutDims dimensions with above-average distinct
// projections and grows their cut counts round-robin within the space
// budget.
func (t *Tree) chooseCuts(box rules.Box, ruleIdx []int) []cutSpec {
	// Distinct clipped projections per dimension.
	var distinct [rules.NumDims]int
	if t.dimSeen == nil {
		t.dimSeen = make(map[rules.Span]bool, len(ruleIdx))
	}
	seen := t.dimSeen
	for d := 0; d < rules.NumDims; d++ {
		if box[d].Size() < 2 {
			continue
		}
		clear(seen)
		for _, ri := range ruleIdx {
			if clip, ok := t.rs.Rules[ri].Span(rules.Dim(d)).Intersect(box[d]); ok {
				seen[clip] = true
			}
		}
		distinct[d] = len(seen)
	}
	// Mean over cuttable dimensions with at least 2 projections.
	sum, cnt := 0, 0
	for d := 0; d < rules.NumDims; d++ {
		if distinct[d] > 1 {
			sum += distinct[d]
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	mean := float64(sum) / float64(cnt)
	var dims []rules.Dim
	for d := 0; d < rules.NumDims; d++ {
		if distinct[d] > 1 && float64(distinct[d]) >= mean {
			dims = append(dims, rules.Dim(d))
		}
		if len(dims) == MaxCutDims {
			break
		}
	}
	if len(dims) == 0 {
		return nil
	}

	cuts := make([]cutSpec, len(dims))
	for i, d := range dims {
		cuts[i] = cutSpec{dim: d, log2nc: 1}
		cuts[i].log2cw = uint(bits.TrailingZeros64(box[d].Size())) - 1
	}
	budget := t.cfg.SpFac * float64(len(ruleIdx))
	// Grow cut counts round-robin while the space measure stays within
	// budget and the cell cap is respected.
	for {
		grew := false
		for i := range cuts {
			next := cuts[i]
			next.log2nc++
			next.log2cw--
			if uint64(1)<<next.log2nc > box[cuts[i].dim].Size() {
				continue
			}
			// Trial in place: swap the grown spec in, evaluate, and swap
			// back on rejection — no per-iteration trial slice.
			prev := cuts[i]
			cuts[i] = next
			if totalCells(cuts) > t.cfg.MaxCells || t.spaceMeasure(box, ruleIdx, cuts) > budget {
				cuts[i] = prev
				continue
			}
			grew = true
		}
		if !grew {
			break
		}
	}
	return cuts
}

func totalCells(cuts []cutSpec) int {
	total := 1
	for _, c := range cuts {
		total <<= c.log2nc
	}
	return total
}

// spaceMeasure computes Σ over cells of rule counts plus the cell count,
// without materializing lists.
func (t *Tree) spaceMeasure(box rules.Box, ruleIdx []int, cuts []cutSpec) float64 {
	total := float64(totalCells(cuts))
	for _, ri := range ruleIdx {
		cells := 1
		for _, c := range cuts {
			lo, hi := cellRange(t.rs.Rules[ri].Span(c.dim), box[c.dim], c.log2cw, 1<<c.log2nc)
			cells *= hi - lo + 1
		}
		total += float64(cells)
	}
	return total
}

// cellRange is the inclusive cell-index range a rule span overlaps.
func cellRange(ruleSpan, boxSpan rules.Span, log2cw uint, nc int) (int, int) {
	clip, ok := ruleSpan.Intersect(boxSpan)
	if !ok {
		return 0, -1
	}
	lo := int(uint64(clip.Lo-boxSpan.Lo) >> log2cw)
	hi := int(uint64(clip.Hi-boxSpan.Lo) >> log2cw)
	if hi >= nc {
		hi = nc - 1
	}
	return lo, hi
}

// Classify walks the in-memory tree (native lookup).
func (t *Tree) Classify(h rules.Header) int {
	n := t.root
	for !n.leaf {
		idx := 0
		for _, c := range n.cuts {
			ci := (h.Field(c.dim) >> c.log2cw) & uint32(1<<c.log2nc-1)
			idx = idx<<c.log2nc | int(ci)
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

// ClassifyBatch classifies hs[i] into out[i] (the
// rules.BatchClassifier contract; out must be at least as long as hs). Like
// HiCuts, HyperCuts depth is data-dependent, so this is the amortized
// per-packet loop: one call, zero allocations, answers identical to
// Classify.
func (t *Tree) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = t.Classify(h)
	}
}

// Name identifies the algorithm in reports.
func (t *Tree) Name() string { return "HyperCuts" }

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
		if len(n.cuts) > 1 {
			t.stats.MultiDimNodes++
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
}
