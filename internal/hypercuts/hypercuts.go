// Package hypercuts implements HyperCuts (Singh, Baboescu, Varghese &
// Wang, SIGCOMM 2003), the second field-dependent baseline the paper's
// taxonomy cites (§2). Where HiCuts cuts one dimension per node, HyperCuts
// cuts up to two dimensions *simultaneously*, flattening the tree: a node
// with 2^a × 2^b cells replaces two HiCuts levels, trading a wider pointer
// array for a shorter dependent-access chain.
//
// The build, layout and walks are internal/cuttree's, shared with
// internal/hicuts; this package adds its configuration and its dimension
// pick (dimensions with at least the mean distinct projections are cut
// together).
package hypercuts

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
	// Tree is a built HyperCuts classifier.
	Tree = cuttree.Tree
	// BuildStats reports tree shape metrics.
	BuildStats = cuttree.BuildStats
)

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

// New builds a HyperCuts tree over the rule set and serializes it.
func New(rs *rules.RuleSet, cfg Config) (*Tree, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: every recursion step checks ctx and
// charges nodes and estimated bytes against budget (nil = ctx only), so
// an adversarial rule set aborts the build with a typed
// *buildgov.BudgetError in bounded time.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Tree, error) {
	d := DefaultConfig() // fills the zero fields of cfg
	return cuttree.New(ctx, rs, cuttree.Config{
		Name:         "HyperCuts",
		Pick:         pick,
		Binth:        cmp.Or(cfg.Binth, d.Binth),
		SpFac:        cmp.Or(cfg.SpFac, d.SpFac),
		MaxCells:     cmp.Or(cfg.MaxCells, d.MaxCells),
		MaxDepth:     cmp.Or(cfg.MaxDepth, d.MaxDepth),
		PruneCovered: *cmp.Or(cfg.PruneCovered, d.PruneCovered),
		Channels:     cmp.Or(cfg.Channels, d.Channels),
		Headroom:     cmp.Or(cfg.Headroom, d.Headroom),
	}, budget)
}

// pick chooses the first MaxCutDims dimensions whose distinct clipped
// projections are at least the mean over the dimensions with two or
// more. It picks none when no dimension has two.
func pick(distinct *[rules.NumDims]int, _ *rules.Box) (dims [cuttree.MaxCutDims]rules.Dim, n int) {
	sum, cnt := 0, 0
	for _, k := range distinct {
		if k > 1 {
			sum += k
			cnt++
		}
	}
	if cnt == 0 {
		return dims, 0
	}
	mean := float64(sum) / float64(cnt)
	for d, k := range distinct {
		if k > 1 && float64(k) >= mean {
			dims[n] = rules.Dim(d)
			if n++; n == len(dims) {
				break
			}
		}
	}
	return dims, n
}
