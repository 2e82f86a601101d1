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
// The build, layout and walks are internal/cuttree's; this package adds
// its configuration and its dimension pick.
package hicuts

import (
	"cmp"
	"context"

	"repro/internal/buildgov"
	"repro/internal/cuttree"
	"repro/internal/memlayout"
	"repro/internal/rules"
)

// HardMaxDepth is the recursion ceiling enforced independently of the
// configured MaxDepth (see cuttree.HardMaxDepth).
const HardMaxDepth = cuttree.HardMaxDepth

// ErrDepthExceeded reports a build that recursed past HardMaxDepth.
var ErrDepthExceeded = cuttree.ErrDepthExceeded

type (
	// Tree is a built HiCuts classifier.
	Tree = cuttree.Tree
	// BuildStats reports tree shape and cost metrics; MultiDimNodes is
	// always 0.
	BuildStats = cuttree.BuildStats
)

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

// New builds a HiCuts tree over the rule set and serializes it.
func New(rs *rules.RuleSet, cfg Config) (*Tree, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: every recursion step checks ctx and
// charges nodes and estimated bytes against budget (nil = ctx only), so
// an adversarial rule set aborts the build with a typed
// *buildgov.BudgetError in bounded time instead of hanging the caller.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Tree, error) {
	d := DefaultConfig() // fills the zero fields of cfg
	return cuttree.New(ctx, rs, cuttree.Config{
		Name:         "HiCuts",
		Pick:         pick,
		Binth:        cmp.Or(cfg.Binth, d.Binth),
		SpFac:        cmp.Or(cfg.SpFac, d.SpFac),
		MaxCells:     cmp.Or(cfg.MaxCuts, d.MaxCuts),
		MaxDepth:     cmp.Or(cfg.MaxDepth, d.MaxDepth),
		PruneCovered: cfg.PruneCovered,
		Channels:     cmp.Or(cfg.Channels, d.Channels),
		Headroom:     cmp.Or(cfg.Headroom, d.Headroom),
	}, budget)
}

// pick is the standard HiCuts heuristic: the one dimension with the most
// distinct clipped rule projections, ties broken toward the wider box
// span. It picks none when no dimension has at least two.
func pick(distinct *[rules.NumDims]int, box *rules.Box) (dims [cuttree.MaxCutDims]rules.Dim, n int) {
	best, bestDistinct := -1, 1
	var bestSize uint64
	for d, k := range distinct {
		size := box[d].Size()
		if k > bestDistinct || (k == bestDistinct && best >= 0 && size > bestSize) {
			best, bestDistinct, bestSize = d, k, size
		}
	}
	if best < 0 {
		return dims, 0
	}
	dims[0] = rules.Dim(best)
	return dims, 1
}
