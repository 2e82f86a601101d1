package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/rules"
)

// PipelineRow is one (shard count, group size) cell of the
// software-pipelining sweep. Group 0 rows are the level-synchronous
// baseline walk at the same shard count; SpeedupVsSync for a pipelined
// row is its MeasuredMpps over that baseline, measured in interleaved
// windows of the same invocation so host noise cancels.
type PipelineRow struct {
	Shards           int
	Group            int // 0 = level-synchronous baseline (no pipelining)
	Affine           bool
	MeasuredMpps     float64
	CriticalPathMpps float64
	SpeedupVsSync    float64
}

// pipelineReps is how many interleaved timed windows each (shards,
// group) cell gets. The sweep is the input to a regression gate, so it
// leans on more reps than the serve comparison; windows for all group
// sizes of a shard count are interleaved rep-by-rep to keep the
// sync/pipelined ratio honest on a noisy host.
const pipelineReps = 9

// pipelinePasses is how many ordered engine runs one timed window spans.
const pipelinePasses = 6

// Pipeline measures the software-pipelined ExpCuts walk against the
// level-synchronous baseline on the 1k-rule ACL serving set, sweeping
// group size against shard count. It also returns the per-level stage
// fill observed during the pipelined windows: fill[l] is the fraction of
// packets that visited a node at original tree level l (the compressed
// arena elides single-child nodes, so a path can skip levels), the
// software reading of the paper's per-microengine bank occupancy.
func Pipeline(ctx Context, batchSize int, groups, shardCounts []int, affine bool) ([]PipelineRow, []float64, error) {
	ctx.fillDefaults()
	if batchSize == 0 {
		batchSize = engine.DefaultBatchSize
	}
	if len(groups) == 0 {
		// Default cells scale with the batch: two grouped points and the
		// whole-batch wave (group == batch), which is the shape the engine
		// serves when PipelineGroup >= BatchSize.
		for _, g := range []int{batchSize / 8, batchSize / 2, batchSize} {
			if g > 0 && (len(groups) == 0 || g > groups[len(groups)-1]) {
				groups = append(groups, g)
			}
		}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	rs, err := ServeRuleSet(ctx.Seed)
	if err != nil {
		return nil, nil, err
	}
	trace, err := ctx.headers(rs)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]rules.Header, ctx.Packets)
	for i := range hs {
		hs[i] = trace[i%len(trace)]
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: building ExpCuts: %w", err)
	}

	// Group 0 heads each shard count's cells as the sync baseline.
	cells := make([]int, 0, len(groups)+1)
	cells = append(cells, 0)
	for _, g := range groups {
		if g < 0 {
			return nil, nil, fmt.Errorf("pipeline: invalid group size %d", g)
		}
		cells = append(cells, g)
	}

	fillBase := tree.StageFill()
	var rows []PipelineRow
	for _, shards := range shardCounts {
		if shards < 1 {
			return nil, nil, fmt.Errorf("pipeline: invalid shard count %d", shards)
		}
		best := make([]time.Duration, len(cells))
		busiest := make([]time.Duration, len(cells))
		// Interleave: every rep times each cell once, so a load spike on
		// the host hits sync and pipelined windows alike instead of
		// biasing one side of the ratio.
		for rep := 0; rep < pipelineReps; rep++ {
			for ci, group := range cells {
				cfg := engine.DefaultConfig()
				cfg.BatchSize = batchSize
				cfg.Shards = shards
				cfg.PipelineGroup = group
				cfg.PipelineAffine = affine && group > 0
				runtime.GC()
				start := time.Now()
				repBusiest := time.Duration(0)
				for pass := 0; pass < pipelinePasses; pass++ {
					st, err := engine.RunContext(context.Background(), tree, cfg, hs, func(engine.Result) {})
					if err != nil {
						return nil, nil, fmt.Errorf("pipeline: %d-shard group-%d run: %w", shards, group, err)
					}
					passBusiest := time.Duration(0)
					for _, b := range st.ShardBusy {
						if b > passBusiest {
							passBusiest = b
						}
					}
					repBusiest += passBusiest
				}
				if elapsed := time.Since(start); rep == 0 || elapsed < best[ci] {
					best[ci] = elapsed
				}
				if rep == 0 || repBusiest < busiest[ci] {
					busiest[ci] = repBusiest
				}
			}
		}
		var sync float64
		for ci, group := range cells {
			row := PipelineRow{
				Shards:       shards,
				Group:        group,
				Affine:       affine && group > 0,
				MeasuredMpps: float64(len(hs)) * pipelinePasses / best[ci].Seconds() / 1e6,
			}
			if busiest[ci] > 0 {
				row.CriticalPathMpps = float64(len(hs)) * pipelinePasses / busiest[ci].Seconds() / 1e6
			}
			if group == 0 {
				sync = row.MeasuredMpps
				row.SpeedupVsSync = 1
			} else if sync > 0 {
				row.SpeedupVsSync = row.MeasuredMpps / sync
			}
			rows = append(rows, row)
		}
	}

	fill := stageFillFractions(fillBase, tree.StageFill())
	return rows, fill, nil
}

// stageFillFractions turns two cumulative stage-fill snapshots into the
// fraction of packets visiting a node at each level, normalized to level 0
// (which counts every packet walked, so fill[0] is 1 whenever any
// pipelined window ran).
func stageFillFractions(before, after []uint64) []float64 {
	if len(after) == 0 || len(after) != len(before) {
		return nil
	}
	root := after[0] - before[0]
	if root == 0 {
		return nil
	}
	fill := make([]float64, len(after))
	for l := range after {
		fill[l] = float64(after[l]-before[l]) / float64(root)
	}
	return fill
}

// RenderPipeline formats the pipelining sweep and the stage-fill profile.
func RenderPipeline(rows []PipelineRow, fill []float64, batchSize int) string {
	if batchSize == 0 {
		batchSize = engine.DefaultBatchSize
	}
	table := make([][]string, len(rows))
	for i, r := range rows {
		group := "sync"
		if r.Group > 0 {
			group = fmt.Sprintf("%d", r.Group)
		}
		table[i] = []string{
			fmt.Sprintf("%d", r.Shards),
			group,
			fmt.Sprintf("%v", r.Affine),
			fmt.Sprintf("%.2f", r.MeasuredMpps),
			fmt.Sprintf("%.2f", r.CriticalPathMpps),
			fmt.Sprintf("%.2fx", r.SpeedupVsSync),
		}
	}
	out := fmt.Sprintf("Software-pipelined serving — batched ExpCuts on ACL1K (%d rules), batch=%d\n"+
		"(group=sync is the level-synchronous walk; speedup is vs sync at the same shard count)\n%s",
		ServeRuleSize, batchSize,
		renderTable([]string{"Shards", "Group", "Affine", "Measured Mpps", "Critical-path Mpps", "Vs sync"}, table))
	if len(fill) > 0 {
		out += "Stage fill (node visits at each original level, fraction of packets walked):\n"
		for l, f := range fill {
			out += fmt.Sprintf("  L%-2d %.3f\n", l, f)
		}
	}
	return out
}
