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

// ScalingRow is one shard count of the multi-core serving curve, in two
// readings. MeasuredMpps is wall-clock throughput on this host, which
// cannot exceed what GOMAXPROCS cores can deliver — on a 1-core
// container every row measures about the same. CriticalPathMpps is the
// projected throughput with one core per shard: packets divided by the
// busiest shard's classification time. It is the software analogue of
// the paper's microengine utilization model — the flow-hash partition's
// load balance is what the projection actually measures, so it is an
// upper bound that real cores approach only when dispatch and emission
// are not the bottleneck.
type ScalingRow struct {
	Shards           int
	Gomaxprocs       int // GOMAXPROCS actually in effect for this row
	MeasuredMpps     float64
	CriticalPathMpps float64
	// Speedup is CriticalPathMpps over the 1-shard CriticalPathMpps.
	Speedup float64
}

// scalingReps is how many timed runs each shard count gets; more than
// the serve comparison because the per-shard critical path needs more
// samples for a stable minimum on a shared host.
const scalingReps = 11

// ServeScaling measures the sharded engine's scaling curve for batched
// ExpCuts on the 1k-rule ACL set across the given shard counts
// (defaulting to 1, 2, 4, 8). The 1-shard row runs the unsharded
// pipeline, so it is directly comparable to Serve's batched row.
func ServeScaling(ctx Context, batchSize int, shardCounts []int) ([]ScalingRow, error) {
	ctx.fillDefaults()
	if batchSize == 0 {
		batchSize = engine.DefaultBatchSize
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	rs, err := ServeRuleSet(ctx.Seed)
	if err != nil {
		return nil, err
	}
	trace, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	hs := make([]rules.Header, ctx.Packets)
	for i := range hs {
		hs[i] = trace[i%len(trace)]
	}
	cl, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		return nil, fmt.Errorf("scaling: building ExpCuts: %w", err)
	}

	rows := make([]ScalingRow, 0, len(shardCounts))
	var base float64
	for _, shards := range shardCounts {
		if shards < 1 {
			return nil, fmt.Errorf("scaling: invalid shard count %d", shards)
		}
		cfg := engine.DefaultConfig()
		cfg.BatchSize = batchSize
		cfg.Shards = shards
		cfg.PipelineGroup = ctx.PipelineGroup
		cfg.PipelineAffine = ctx.PipelineAffine
		var best time.Duration
		var busiest time.Duration
		for rep := 0; rep < scalingReps; rep++ {
			start := time.Now()
			st, err := engine.RunContext(context.Background(), cl, cfg, hs, func(engine.Result) {})
			if err != nil {
				return nil, fmt.Errorf("scaling: %d-shard run: %w", shards, err)
			}
			if elapsed := time.Since(start); rep == 0 || elapsed < best {
				best = elapsed
			}
			// The critical path takes its own fastest-of-reps: per-batch
			// timing inside a shard absorbs scheduler preemption on an
			// oversubscribed host, so the minimum busiest-shard time across
			// reps is the stable estimator.
			repBusiest := time.Duration(0)
			for _, b := range st.ShardBusy {
				if b > repBusiest {
					repBusiest = b
				}
			}
			if rep == 0 || repBusiest < busiest {
				busiest = repBusiest
			}
		}
		row := ScalingRow{
			Shards:       shards,
			Gomaxprocs:   runtime.GOMAXPROCS(0),
			MeasuredMpps: float64(len(hs)) / best.Seconds() / 1e6,
		}
		if busiest > 0 {
			row.CriticalPathMpps = float64(len(hs)) / busiest.Seconds() / 1e6
		}
		if base == 0 {
			base = row.CriticalPathMpps
		}
		if base > 0 {
			row.Speedup = row.CriticalPathMpps / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScaling formats the shard-scaling curve.
func RenderScaling(rows []ScalingRow, batchSize int) string {
	if batchSize == 0 {
		batchSize = engine.DefaultBatchSize
	}
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Gomaxprocs),
			fmt.Sprintf("%.2f", r.MeasuredMpps),
			fmt.Sprintf("%.2f", r.CriticalPathMpps),
			fmt.Sprintf("%.2fx", r.Speedup),
		}
	}
	return fmt.Sprintf("Multi-core serving — batched ExpCuts on ACL1K (%d rules), batch=%d\n"+
		"(critical-path Mpps projects one core per shard: packets / busiest shard's classify time)\n%s",
		ServeRuleSize, batchSize,
		renderTable([]string{"Shards", "GOMAXPROCS", "Measured Mpps", "Critical-path Mpps", "Speedup"}, table))
}
