// Command pcbench regenerates the paper's tables and figures (and the
// repository's ablations) and prints them in paper-style rows.
//
// Usage:
//
//	pcbench -experiment all
//	pcbench -experiment fig6,fig9 -packets 50000
//
// Experiments: fig6 fig7 fig8 fig9 tab2 tab4 tab5
// stride habs popcount binth sharing extended ladder serve scaling
// pipeline obs churn tenants rulescale all
//
// The ladder experiment walks every rule set (standard + pathological)
// through the degradation ladder given by -ladder under the build budget
// given by -build-timeout / -build-maxnodes, and prints which rung ended
// up serving each run.
//
// The serve experiment measures engine throughput per-packet versus
// batched (-batch sets the batch size) on the 1k-rule ACL set. The
// scaling experiment measures the flow-affinity sharded engine across
// -shards shard counts. The obs experiment prices the observability
// layer itself: metrics-off versus metrics-on throughput on the batched
// and sharded paths. The churn experiment serves the same set while a
// delta-layer updater pushes live edits (-churn-shards sets the shard
// count) and reports concurrent serving Mpps next to sustained
// updates/sec. The tenants experiment measures hostile-tenant isolation:
// a victim tenant's Mpps solo versus co-resident with a WildcardStorm
// tenant churning its own delta layer (-tenants-shards sets the shard
// count). The rulescale experiment measures build time, memory and
// critical-path Mpps per algorithm on the deterministic ACL presets
// across -rulescale-sizes rule counts, each build under
// buildgov.ScaledBudget — budget-tripped tree builds print as zero-Mpps
// rows. The pipeline experiment sweeps the software-pipelined stage walk
// across -groups group sizes and -pipeline-shards shard counts against
// the level-synchronous baseline; -pipeline with -group additionally
// routes the serve and scaling experiments through the staged walk, so
// any serving comparison can be read pipelined. -cpuprofile and
// -memprofile write pprof profiles covering the selected experiments.
//
// These are exploratory tables. The benchmark later changes are judged
// by is bench/ (BENCHMARK.json): bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		which    = flag.String("experiment", "all", "comma-separated experiment list (fig6 fig7 fig8 fig9 tab2 tab4 tab5 stride habs popcount binth sharing extended ladder serve scaling pipeline obs churn tenants rulescale all)")
		packets  = flag.Int("packets", 25000, "packets per simulation")
		traceLen = flag.Int("trace", 2000, "distinct headers per trace")
		seed     = flag.Int64("seed", 1, "trace seed")
		extSet   = flag.String("set", "CR04", "rule set for the extended comparison")

		buildTimeout  = flag.Duration("build-timeout", 500*time.Millisecond, "ladder: wall-clock budget per build attempt (0 = unlimited)")
		buildMaxNodes = flag.Int("build-maxnodes", 0, "ladder: node/table-row budget per build attempt (0 = unlimited)")
		ladderNames   = flag.String("ladder", "expcuts,hicuts,hsm,linear", "ladder: degradation rungs, best first")

		batch         = flag.Int("batch", 0, "serve/scaling/obs: engine batch size (0 = engine default)")
		shardList     = flag.String("shards", "1,2,4,8", "scaling: comma-separated shard counts")
		pipelined     = flag.Bool("pipeline", false, "serve/scaling: route classification through the software-pipelined stage walk")
		group         = flag.Int("group", engine.PipelineAuto, "stage group size for -pipeline (-1 = auto from GOMAXPROCS)")
		affine        = flag.Bool("affine", false, "pipeline: shard-affine counting-sorted walk order")
		pipeShardList = flag.String("pipeline-shards", "1,2,4", "pipeline: comma-separated shard counts for the sweep")
		groupList     = flag.String("groups", "", "pipeline: comma-separated stage group sizes for the sweep (empty = derived from batch)")
		obsShards     = flag.Int("obs-shards", 4, "obs: shard count for the sharded overhead row")
		churnShards   = flag.Int("churn-shards", 4, "churn: shard count for the live-update run")
		tenantsShards = flag.Int("tenants-shards", 4, "tenants: shard count for the isolation run")
		scaleSizes    = flag.String("rulescale-sizes", "1000,10000,100000", "rulescale: comma-separated ACL rule counts")
		scaleAlgos    = flag.String("rulescale-algos", "expcuts,hsm,linear,rmi", "rulescale: comma-separated algorithms")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memProfile    = flag.String("memprofile", "", "write a heap profile after the selected experiments")

		metricsAddr = flag.String("metrics", "", "serve /metrics, /debug/vars and /events on this addr while experiments run (process-level introspection; experiment engines stay uninstrumented so their numbers match the metrics-off baselines)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		reg.SetEvents(obs.NewRing(obs.DefaultRingSize))
		reg.EnableExpvar()
		srv, err := reg.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n\n", srv.Addr())
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pcbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pcbench:", err)
			}
		}()
	}

	ctx := experiments.Context{TraceLen: *traceLen, Packets: *packets, Seed: *seed}
	if *pipelined {
		ctx.PipelineGroup = *group
		ctx.PipelineAffine = *affine
	}

	type driver struct {
		name string
		run  func() (string, error)
	}
	drivers := []driver{
		{"fig6", func() (string, error) {
			rows, err := experiments.Fig6(ctx)
			return experiments.RenderFig6(rows), err
		}},
		{"fig7", func() (string, error) {
			rows, err := experiments.Fig7(ctx)
			return experiments.RenderFig7(rows), err
		}},
		{"fig8", func() (string, error) {
			rows, err := experiments.Fig8(ctx)
			return experiments.RenderFig8(rows), err
		}},
		{"fig9", func() (string, error) {
			rows, err := experiments.Fig9(ctx)
			return experiments.RenderFig9(rows), err
		}},
		{"tab2", func() (string, error) {
			rows, err := experiments.Tab2(ctx)
			return experiments.RenderTab2(rows), err
		}},
		{"tab4", func() (string, error) {
			rows, err := experiments.Tab4(ctx)
			return experiments.RenderTab4(rows), err
		}},
		{"tab5", func() (string, error) {
			rows, err := experiments.Tab5(ctx)
			return experiments.RenderTab5(rows), err
		}},
		{"stride", func() (string, error) {
			rows, err := experiments.AblationStride(ctx)
			return experiments.RenderAblationStride(rows), err
		}},
		{"habs", func() (string, error) {
			rows, err := experiments.AblationHABS(ctx)
			return experiments.RenderAblationHABS(rows), err
		}},
		{"popcount", func() (string, error) {
			rows, err := experiments.AblationPopCount(ctx)
			return experiments.RenderAblationPopCount(rows), err
		}},
		{"binth", func() (string, error) {
			rows, err := experiments.AblationBinth(ctx)
			return experiments.RenderAblationBinth(rows), err
		}},
		{"sharing", func() (string, error) {
			rows, err := experiments.AblationSharing(ctx)
			return experiments.RenderAblationSharing(rows), err
		}},
		{"extended", func() (string, error) {
			rows, err := experiments.Extended(ctx, *extSet)
			return experiments.RenderExtended(rows, *extSet), err
		}},
		{"ladder", func() (string, error) {
			var budget *buildgov.Budget
			if *buildTimeout > 0 || *buildMaxNodes > 0 {
				budget = &buildgov.Budget{Timeout: *buildTimeout, MaxNodes: *buildMaxNodes}
			}
			names := strings.Split(*ladderNames, ",")
			rows, err := experiments.Ladder(ctx, names, budget)
			if err != nil {
				return "", err
			}
			return experiments.RenderLadder(rows, names, budget), nil
		}},
		{"serve", func() (string, error) {
			rows, err := experiments.Serve(ctx, *batch)
			if err != nil {
				return "", err
			}
			return experiments.RenderServe(rows, *batch), nil
		}},
		{"scaling", func() (string, error) {
			counts, err := parseIntList(*shardList, "shard count")
			if err != nil {
				return "", err
			}
			rows, err := experiments.ServeScaling(ctx, *batch, counts)
			if err != nil {
				return "", err
			}
			return experiments.RenderScaling(rows, *batch), nil
		}},
		{"pipeline", func() (string, error) {
			counts, err := parseIntList(*pipeShardList, "shard count")
			if err != nil {
				return "", err
			}
			var groups []int
			if *groupList != "" {
				if groups, err = parseIntList(*groupList, "group size"); err != nil {
					return "", err
				}
			}
			rows, fill, err := experiments.Pipeline(ctx, *batch, groups, counts, *affine)
			if err != nil {
				return "", err
			}
			return experiments.RenderPipeline(rows, fill, *batch), nil
		}},
		{"obs", func() (string, error) {
			rows, err := experiments.MetricsOverhead(ctx, *batch, *obsShards)
			if err != nil {
				return "", err
			}
			return experiments.RenderMetricsOverhead(rows, *batch, *obsShards), nil
		}},
		{"churn", func() (string, error) {
			rows, err := experiments.Churn(ctx, *batch, *churnShards)
			if err != nil {
				return "", err
			}
			return experiments.RenderChurn(rows, *batch, *churnShards), nil
		}},
		{"tenants", func() (string, error) {
			rows, err := experiments.Tenants(ctx, *batch, *tenantsShards)
			if err != nil {
				return "", err
			}
			return experiments.RenderTenants(rows, *batch, *tenantsShards), nil
		}},
		{"rulescale", func() (string, error) {
			sizes, err := parseIntList(*scaleSizes, "rule count")
			if err != nil {
				return "", err
			}
			algos := strings.Split(*scaleAlgos, ",")
			for i := range algos {
				algos[i] = strings.TrimSpace(algos[i])
			}
			rows, err := experiments.RuleScale(ctx, sizes, algos)
			if err != nil {
				return "", err
			}
			return experiments.RenderRuleScale(rows), nil
		}},
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*which, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]

	ran := 0
	for _, d := range drivers {
		if !all && !want[d.name] {
			continue
		}
		start := time.Now()
		out, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %.1fs)\n\n", d.name, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "pcbench: no experiment matched %q\n", *which)
		os.Exit(2)
	}
}

// parseIntList parses a comma-separated list of positive integers
// (the -shards, -pipeline-shards and -groups flags).
func parseIntList(s, what string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("invalid %s %q", what, part)
		}
		out = append(out, n)
	}
	return out, nil
}
