package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/obs"
	"repro/internal/rules"
)

// OverheadRow is one serving path's throughput with the observability
// layer off versus on. Ratio is on/off: 1.0 means instrumentation is
// free. "Off" is a nil engine.Metrics — the
// exact configuration of an uninstrumented deployment — so the ratio
// prices the whole layer: per-batch counter/histogram updates, the
// flow-cache delta export, and the event ring being armed.
type OverheadRow struct {
	Path    string // "batched-1shard" or "sharded"
	OffMpps float64
	OnMpps  float64
	Ratio   float64
}

// overheadReps is how many off/on pairs each path runs, and
// overheadRank which order statistic of each side's readings becomes
// the verdict (see overheadPairs). 25 pairs keep the whole measurement
// in seconds while sampling each side's fast tail well past the rank.
const (
	overheadReps = 25
	overheadRank = 3
)

// overheadMinPackets floors the trace length of each timed run. Runs of
// a few milliseconds put per-run scheduler noise at the same scale as
// the 2% budget; a million packets keeps each run over ~100ms, long
// enough that both sides sample the same interference mix and their
// fast tails track the same achievable speed.
const overheadMinPackets = 1 << 20

// MetricsOverhead measures what the obs instrumentation costs on the two
// serving paths: the batched unsharded pipeline (Serve's batched row)
// and the sharded engine at the given shard count.
// Both runs use batched ExpCuts on the 1k-rule ACL set; the metrics-on
// runs attach a registered Metrics with a live event ring, exactly as
// pcclass -metrics does.
func MetricsOverhead(ctx Context, batchSize, shards int) ([]OverheadRow, error) {
	ctx.fillDefaults()
	if batchSize == 0 {
		batchSize = engine.DefaultBatchSize
	}
	if shards < 1 {
		shards = 4
	}
	rs, err := ServeRuleSet(ctx.Seed)
	if err != nil {
		return nil, err
	}
	trace, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	// A 2% verdict needs timed runs long enough that per-run scheduler
	// noise is small relative to the signal; the floor keeps each run in
	// the tens-of-milliseconds range regardless of the context default.
	packets := ctx.Packets
	if packets < overheadMinPackets {
		packets = overheadMinPackets
	}
	hs := make([]rules.Header, packets)
	for i := range hs {
		hs[i] = trace[i%len(trace)]
	}
	cl, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		return nil, fmt.Errorf("overhead: building ExpCuts: %w", err)
	}

	// The metrics-on configuration mirrors production wiring: a registry
	// holds the collector (so the samples are genuinely reachable from a
	// scrape) and the event ring is armed. Each timed run gets a freshly
	// allocated Metrics: where the counter block lands relative to the
	// classifier's arena decides which cache sets the per-batch updates
	// contend for, and one unlucky allocation held for a whole process
	// would read as phantom overhead in every metrics-on run. Fresh
	// allocations sample many layouts and fastest-of keeps the clean one.
	makeCfg := func(nshards int, instrumented bool) func() engine.Config {
		return func() engine.Config {
			cfg := engine.DefaultConfig()
			cfg.BatchSize = batchSize
			cfg.Shards = nshards
			if instrumented {
				m := engine.NewMetrics(shards)
				m.SetEvents(obs.NewRing(obs.DefaultRingSize))
				m.Register(obs.NewRegistry())
				cfg.Metrics = m
			}
			return cfg
		}
	}

	// Batched 1-shard is the unsharded pipeline of Serve's batched row;
	// sharded exercises the per-shard serve loops, the
	// sequencer and the reorder-held histogram. Both are wall-clock:
	// a shard's busy window deliberately excludes its own recordBatch
	// call, so busy-time ratios would measure nothing — wall time is
	// where instrumentation cost actually lands.
	rows := make([]OverheadRow, 0, 2)
	for _, p := range []struct {
		path   string
		shards int
	}{
		{"batched-1shard", 0},
		{"sharded", shards},
	} {
		off, on, ratio, err := overheadPairs(cl, hs, makeCfg(p.shards, false), makeCfg(p.shards, true))
		if err != nil {
			return nil, fmt.Errorf("overhead: %s: %w", p.path, err)
		}
		rows = append(rows, OverheadRow{Path: p.path, OffMpps: off, OnMpps: on, Ratio: ratio})
	}
	return rows, nil
}

// overheadPairs runs overheadReps interleaved off/on pairs and returns
// each side's overheadRank-th fastest Mpps plus their ratio, the gate's
// verdict. Near-fastest is the estimator that resolves a sub-1% effect
// on a shared CI host: co-tenant interference and frequency drift only
// ever slow a CPU-bound run down, so each side's fast tail converges on
// its true uncontended speed as reps accumulate. (Medians don't — the
// middle sample still carries whatever interference was typical during
// the run.) Taking the overheadRank-th best rather than the single
// fastest discards the one-in-a-run perfectly-quiet outlier that would
// otherwise swing the ratio by a few percent when only one side draws
// it. Interleaving plus alternating which side goes first keeps any
// leftover drift and warm-cache advantage from loading one side's fast
// tail.
func overheadPairs(cl engine.Classifier, hs []rules.Header, cfgOff, cfgOn func() engine.Config) (float64, float64, float64, error) {
	offs := make([]float64, 0, overheadReps)
	ons := make([]float64, 0, overheadReps)
	run := func(mkCfg func() engine.Config, out *[]float64) error {
		cfg := mkCfg() // fresh Metrics allocation, outside the timed window
		start := time.Now()
		if _, err := engine.RunContext(context.Background(), cl, cfg, hs, func(engine.Result) {}); err != nil {
			return err
		}
		*out = append(*out, float64(len(hs))/time.Since(start).Seconds()/1e6)
		return nil
	}
	for rep := 0; rep < overheadReps; rep++ {
		first, second := &offs, &ons
		cfgFirst, cfgSecond := cfgOff, cfgOn
		if rep%2 == 1 {
			first, second = second, first
			cfgFirst, cfgSecond = cfgSecond, cfgFirst
		}
		if err := run(cfgFirst, first); err != nil {
			return 0, 0, 0, err
		}
		if err := run(cfgSecond, second); err != nil {
			return 0, 0, 0, err
		}
	}
	off, on := nearFastest(offs), nearFastest(ons)
	return off, on, on / off, nil
}

// nearFastest returns the overheadRank-th fastest reading.
func nearFastest(vs []float64) float64 {
	sort.Sort(sort.Reverse(sort.Float64Slice(vs)))
	i := overheadRank - 1
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

// RenderMetricsOverhead formats the overhead comparison.
func RenderMetricsOverhead(rows []OverheadRow, batchSize, shards int) string {
	if batchSize == 0 {
		batchSize = engine.DefaultBatchSize
	}
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Path,
			fmt.Sprintf("%.2f", r.OffMpps),
			fmt.Sprintf("%.2f", r.OnMpps),
			fmt.Sprintf("%.1f%%", 100*(1-r.Ratio)),
		}
	}
	return fmt.Sprintf("Observability overhead — batched ExpCuts on ACL1K (%d rules), batch=%d, %d shards\n%s",
		ServeRuleSize, batchSize, shards,
		renderTable([]string{"Path", "Metrics-off Mpps", "Metrics-on Mpps", "Overhead"}, table))
}
