// Command pcbench regenerates the paper's tables and figures (and the
// repository's ablations) and prints them in paper-style rows.
//
// Usage:
//
//	pcbench -experiment all
//	pcbench -experiment fig6,fig9 -packets 50000
//
// Experiments: fig6 fig7 fig8 fig9 tab2 tab4 tab5
// stride habs popcount binth sharing extended rulescale all
//
// An unknown name anywhere in the list is refused (exit 2) before
// anything runs.
//
// The rulescale experiment measures build time, memory and critical-path
// Mpps per algorithm on the deterministic ACL presets across
// -rulescale-sizes rule counts, each build under buildgov.ScaledBudget —
// budget-tripped tree builds print as zero-Mpps rows. -cpuprofile and
// -memprofile write pprof profiles covering the selected experiments.
//
// Serving throughput and latency are not measured here: the benchmark
// later changes are judged by is bench/ (BENCHMARK.json), bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

// driver is one named experiment.
type driver struct {
	name string
	run  func() (string, error)
}

func main() {
	var (
		which      = flag.String("experiment", "all", "comma-separated experiment list (fig6 fig7 fig8 fig9 tab2 tab4 tab5 stride habs popcount binth sharing extended rulescale all)")
		packets    = flag.Int("packets", 25000, "packets per simulation")
		traceLen   = flag.Int("trace", 2000, "distinct headers per trace")
		seed       = flag.Int64("seed", 1, "trace seed")
		extSet     = flag.String("set", "CR04", "rule set for the extended comparison")
		scaleSizes = flag.String("rulescale-sizes", "1000,10000,100000", "rulescale: comma-separated ACL rule counts")
		scaleAlgos = flag.String("rulescale-algos", "expcuts,hsm,linear,rmi", "rulescale: comma-separated algorithms")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memProfile = flag.String("memprofile", "", "write a heap profile after the selected experiments")
	)
	flag.Parse()

	ctx := experiments.Context{TraceLen: *traceLen, Packets: *packets, Seed: *seed}
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

	selected, err := selectDrivers(drivers, *which)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcbench:", err)
		os.Exit(2)
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

	for _, d := range selected {
		start := time.Now()
		out, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %.1fs)\n\n", d.name, time.Since(start).Seconds())
	}
}

// selectDrivers returns the drivers named in the comma-separated list, in
// driver order; "all" selects every driver. A name that is neither a
// driver nor "all" is an error listing the valid names, even when other
// names in the list match.
func selectDrivers(drivers []driver, list string) ([]driver, error) {
	known := map[string]bool{"all": true}
	valid := make([]string, 0, len(drivers)+1)
	for _, d := range drivers {
		known[d.name] = true
		valid = append(valid, d.name)
	}
	valid = append(valid, "all")

	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, " "))
		}
		want[name] = true
	}
	var out []driver
	for _, d := range drivers {
		if want["all"] || want[d.name] {
			out = append(out, d)
		}
	}
	return out, nil
}

// parseIntList parses a comma-separated list of positive integers
// (the -rulescale-sizes flag).
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
