// Package rmi implements a NuevoMatch-style learned range index for packet
// classification ("A Computational Approach to Packet Classification",
// PAPERS.md): the rule set is partitioned into a few *independent sets* —
// rules whose projections onto one dimension are pairwise disjoint — each
// indexed by a two-stage range-query-safe recursive model index (RQ-RMI)
// with an exactly verified error bound, plus a *remainder* classifier for
// the model-resistant rules, built through the same budgeted algorithms
// the degradation ladder uses (expcuts → hsm → linear).
//
// A lookup runs, per independent set: one stage-0 linear model, one
// stage-1 linear model, and a binary search over the verified error
// window — a handful of cache lines regardless of rule count. That is the
// scaling story the paper's decision trees lack: at 100k–1M rules a tree
// either blows past its memory budget or loses cache residency, while the
// learned index's resident size stays a small multiple of the rule array.
// First-match semantics are preserved exactly: disjointness means each
// independent set yields at most one full-match candidate, the remainder
// yields at most one, and the result is the minimum original rule index —
// conformance tests hold it equal to the linear oracle on every family.
//
// The package implements rules.BatchClassifier, so it slots into
// update.NewManagerLadder as a rung and inherits shadow-validated swaps,
// breakers, sharding, batch pooling and tenant dispatch unchanged.
package rmi

import (
	"context"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/buildgov"
	"repro/internal/expcuts"
	"repro/internal/hsm"
	"repro/internal/linear"
	"repro/internal/rules"
)

// Config parameterizes an index build. The zero value is ready for use.
type Config struct {
	// MinISetSize stops extraction once the best remaining candidate set
	// is smaller than this: tiny sets are cheaper to classify inside the
	// remainder than with their own model probe. Default 32. Setting it
	// above the rule count forces the pure-remainder fallback path.
	MinISetSize int
}

const (
	// maxISets bounds how many independent sets are extracted. Each adds
	// a per-packet model probe, so more sets only pay off while they keep
	// absorbing a meaningful rule fraction.
	maxISets = 4
	// submodelRules is the target number of keys per stage-1 submodel.
	submodelRules = 64
)

func (c *Config) fillDefaults() {
	if c.MinISetSize == 0 {
		c.MinISetSize = 32
	}
}

// classifier is what the remainder must be: a lookup and its footprint.
type classifier interface {
	rules.Classifier
	MemoryBytes() int
}

// Stats describes a built index.
type Stats struct {
	// NumISets is the number of independent sets extracted.
	NumISets int
	// IndexedRules is how many rules the learned models cover.
	IndexedRules int
	// RemainderRules is how many fell through to the remainder.
	RemainderRules int
	// RemainderAlgo names the algorithm that built the remainder
	// ("none" when every rule was indexed).
	RemainderAlgo string
	// Submodels is the total stage-1 submodel count across sets.
	Submodels int
	// MaxErr is the largest verified error bound of any submodel — the
	// worst-case secondary-search window half-width.
	MaxErr int
}

// Index is the built classifier. Immutable after construction and safe
// for concurrent use.
type Index struct {
	rules  []rules.Rule
	isets  []iset
	rem    classifier
	remPos []int32 // remainder-local index → original rule index, increasing
	stats  Stats
}

const sizeofRule = int(unsafe.Sizeof(rules.Rule{}))

// New builds an index without context or budget governance.
func New(rs *rules.RuleSet, cfg Config) (*Index, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx builds an index under a build budget. Extraction and model
// fitting charge the governor; the remainder chain passes the same budget
// to each algorithm it tries, with ladder semantics (a heap/node trip
// falls down the chain, cancellation aborts). Linear as the chain's last
// entry makes the build total for any rule set the budget admits.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Index, error) {
	cfg.fillDefaults()
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("rmi: %w", err)
	}
	gov := buildgov.Start(ctx, budget)
	// The index retains the rule array for final-match confirmation;
	// charge it like any other resident structure.
	if err := gov.Bytes(int64(len(rs.Rules) * sizeofRule)); err != nil {
		return nil, err
	}

	sets, remIdx, err := extractISets(rs.Rules, cfg.MinISetSize, gov)
	if err != nil {
		return nil, err
	}
	x := &Index{rules: rs.Rules, isets: sets}
	for i := range x.isets {
		s := &x.isets[i]
		if err := gov.Nodes(len(s.lo), int64(s.bytes())); err != nil {
			return nil, err
		}
		dimMax := uint32(uint64(1)<<rules.DimBits[s.dim] - 1)
		s.model = fitModel(s.lo, (len(s.lo)-1)/submodelRules+1, dimMax)
		if err := gov.Bytes(int64(s.model.bytes())); err != nil {
			return nil, err
		}
		x.stats.IndexedRules += len(s.lo)
		x.stats.Submodels += s.model.submodels()
		if w := s.model.maxWindow(); w > x.stats.MaxErr {
			x.stats.MaxErr = w
		}
	}
	x.stats.NumISets = len(x.isets)
	x.stats.RemainderRules = len(remIdx)
	x.stats.RemainderAlgo = "none"

	if len(remIdx) > 0 {
		if err := gov.Bytes(int64(len(remIdx) * (4 + sizeofRule))); err != nil {
			return nil, err
		}
		remRules := make([]rules.Rule, len(remIdx))
		x.remPos = make([]int32, len(remIdx))
		for i, ri := range remIdx {
			remRules[i] = rs.Rules[ri]
			x.remPos[i] = ri // remIdx is in original order → increasing
		}
		rrs := rules.NewRuleSet(rs.Name+"+rem", remRules)
		rem, algo, err := buildRemainder(ctx, rrs, budget)
		if err != nil {
			return nil, err
		}
		x.rem = rem
		x.stats.RemainderAlgo = algo
	}
	return x, nil
}

// buildRemainder tries expcuts, then hsm, then linear, with the shared
// budget: a build error that is not a context cancellation falls through
// to the next, exactly like ladder rungs; linear cannot fail.
func buildRemainder(ctx context.Context, rrs *rules.RuleSet, budget *buildgov.Budget) (classifier, string, error) {
	var c classifier
	var err error
	if c, err = expcuts.NewCtx(ctx, rrs, expcuts.Config{}, budget); err == nil {
		return c, "expcuts", nil
	}
	if ctx.Err() == nil {
		if c, err = hsm.NewCtx(ctx, rrs, hsm.Config{}, budget); err == nil {
			return c, "hsm", nil
		}
	}
	if ctx.Err() != nil {
		return nil, "", fmt.Errorf("rmi: remainder build failed: %w", err)
	}
	return linear.New(rrs), "linear", nil
}

// Name identifies the algorithm.
func (x *Index) Name() string { return "RQ-RMI" }

// Classify returns the first-match rule index for h, or −1. Allocation
// free: each independent set contributes at most one candidate (its
// intervals are disjoint on the probed dimension and the full 5-tuple is
// confirmed before acceptance), the remainder at most one, and first-match
// semantics reduce to the minimum original index over those candidates.
func (x *Index) Classify(h rules.Header) int {
	best := int32(math.MaxInt32)
	for i := range x.isets {
		if r := x.isets[i].lookup(h, x.rules); r >= 0 && r < best {
			best = r
		}
	}
	if x.rem != nil {
		if p := x.rem.Classify(h); p >= 0 {
			if r := x.remPos[p]; r < best {
				best = r
			}
		}
	}
	if best == math.MaxInt32 {
		return -1
	}
	return int(best)
}

// ClassifyBatch classifies hs into out (parallel slices). Per-packet work
// is already allocation free, so the batched path is a plain loop and
// stays 0 allocs/op.
func (x *Index) ClassifyBatch(hs []rules.Header, out []int) {
	for i := range hs {
		out[i] = x.Classify(hs[i])
	}
}

// MemoryBytes reports the resident footprint: the retained rule array,
// interval arrays and models, the remainder position map, and the
// remainder classifier's own image.
func (x *Index) MemoryBytes() int {
	total := len(x.rules) * sizeofRule
	for i := range x.isets {
		total += x.isets[i].bytes() + x.isets[i].model.bytes()
	}
	total += len(x.remPos) * 4
	if x.rem != nil {
		total += x.rem.MemoryBytes()
	}
	return total
}

// Stats returns build statistics.
func (x *Index) Stats() Stats { return x.stats }
