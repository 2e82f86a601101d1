// Command bench is the repository's one benchmark: seven named workloads
// over the serving stack, six end-to-end metrics reported on every one of
// them, and a per-layer ledger measured from outside — by timing calls
// into each package's public functions and by reading its public
// counters. See README.md for the glossary; BENCHMARK.json for the
// contract the numbers are judged by.
//
//	bash bench/run.sh --workload mem_uniform --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh                 # every workload, untraced then traced
//	bash bench/run.sh -aa 5           # A/A: is the benchmark steadier than its bounds?
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// env is one workload, set up: the rule set generated, the classifier
// built, the seeded traffic ready.
type env interface {
	// prepare computes what verification needs (oracle verdicts); it is
	// the benchmark's own work and is not part of setup_s.
	prepare() error
	// memBytes is MemoryBytes() of the serving classifier.
	memBytes() int
	run(o runOpts) (outcome, error)
	// ledger measures the layers this workload exercises in isolation and
	// folds the traced run's spans into per-layer numbers.
	ledger(lc *ledgerCtx) error
}

type runOpts struct {
	warm, timed time.Duration
	tailPct     float64
	rec         *recorder // nil on an untraced run
}

// outcome is what one timed run measured.
type outcome struct {
	attempted, failed int64
	rate              rates   // verdicts (or replies) per second
	lat               latency // the workload's request latency
	layer             map[string]float64
	notes             []string
}

type ledgerCtx struct {
	opts             runOpts
	traced, untraced outcome
	spans            []span
	m                map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// blockLine prints one metric's value in every block of a run.
func blockLine(name string, perBlock []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s", name)
	for _, v := range perBlock {
		fmt.Fprintf(&b, " %.4g", v)
	}
	return b.String()
}

// windows cuts seconds of measuring into w's blocks: how many, and the
// warm-up and timed window of each.
func windows(w *workloadDef, seconds float64) (blocks int, o runOpts) {
	blockLen := w.blockLen
	if blockLen == 0 {
		blockLen = defaultBlockLen
	}
	blocks = max(1, int(seconds/blockLen.Seconds()+0.5))
	timed := time.Duration(seconds / float64(blocks) * float64(time.Second))
	return blocks, runOpts{warm: timed / 6, timed: timed, tailPct: w.tailPct}
}

// runEndToEnd is an untraced run: set-up repeated setupReps times (the
// quickest counts: whatever else the host does only ever slows one), then
// the timed window block by block, every verdict checked. Each block is a
// window of its own — warm-up, timing, checks — and each metric is the
// median of the blocks' values. On a hostScaled workload a block's
// timings are first brought to the reference host's speed by the host
// index measured around the block (see calib.go).
func runEndToEnd(w *workloadDef, seed int64, seconds float64) (report, []string, error) {
	var e env
	setups := make([]float64, w.setupReps)
	for i := range setups {
		e = nil
		runtime.GC() // the previous repetition's tree is garbage; do not time its collection
		start := time.Now()
		var err error
		if e, err = w.setup(measured, seed); err != nil {
			return report{}, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	if err := e.prepare(); err != nil {
		return report{}, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	runtime.GC()

	blocks, o := windows(w, seconds)
	cal := newCalibrator()
	cal.hostIndex() // the kernel's own warm-up
	var attempted, failed int64
	var mpps, cpuNs, p50us, tailUs, rawMpps, index []float64
	var spoiled, notes []string
	var samples int
	before := cal.hostIndex()
	for b := 0; b < blocks; b++ {
		out, err := e.run(o)
		after := cal.hostIndex()
		idx := (before + after) / 2
		before = after
		attempted += out.attempted
		failed += out.failed
		if errors.Is(err, errSpoiled) {
			spoiled = append(spoiled, fmt.Sprintf("left out block %d: %v", b, err))
			continue
		}
		if err != nil {
			return report{}, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rawMpps, index = append(rawMpps, out.rate.perSec/1e6), append(index, idx)
		if !w.hostScaled {
			idx = 1
		}
		mpps = append(mpps, out.rate.perSec/1e6*idx)
		cpuNs = append(cpuNs, out.rate.cpuNsPerUnit/idx)
		p50us, tailUs = append(p50us, out.lat.p50us/idx), append(tailUs, out.lat.tailUs/idx)
		samples += out.lat.samples
		notes = out.notes // the same for every block but for its counts
	}
	if 2*len(mpps) < blocks {
		return report{}, nil, fmt.Errorf("%s: %d of %d blocks were spoiled: %s", w.Name, len(spoiled), blocks, strings.Join(spoiled, "; "))
	}
	values := map[string]float64{
		"setup_s":        slices.Min(setups),
		"mpps":           median(mpps),
		"cpu_ns_per_pkt": median(cpuNs),
		"rtt_p50_us":     median(p50us),
		"rtt_tail_us":    median(tailUs),
		"mem_mb":         float64(e.memBytes()) / 1e6,
	}
	rep := report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(endToEnd))}
	for _, d := range endToEnd {
		v, measured := values[d.Name]
		if !measured {
			return report{}, nil, fmt.Errorf("%s: the catalog lists %q, which no run measures", w.Name, d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	scaling := "raw (a schedule, a timer or simulated time sets this workload's pace, not the cores alone)"
	if w.hostScaled {
		scaling = fmt.Sprintf("each block's timings scaled by its host index to the reference host (median index %.3f)", median(index))
	}
	notes = append([]string{
		fmt.Sprintf("setup_s: the quickest of %d set-ups %.4g", len(setups), setups),
		fmt.Sprintf("mpps, cpu_ns_per_pkt, rtt_*: median of %d blocks of %.3fs, %d latency samples, rtt_tail_us is p%g; %s",
			len(mpps), o.timed.Seconds(), samples, w.tailPct, scaling),
		fmt.Sprintf("fail_frac: %d of %d", failed, attempted),
		"block by block, so that the host's weather over the run shows:",
		blockLine("raw Mpps", rawMpps), blockLine("host index", index),
	}, notes...)
	return rep, append(notes, spoiled...), nil
}

// runTraced is the separate traced run: one set-up, a traced and an
// untraced window of a third of the length each, then the isolated-call
// ledger. Spans go to <outDir>/<workload>.trace.json.
func runTraced(w *workloadDef, seed int64, seconds float64, outDir string) (report, []string, error) {
	e, err := w.setup(measured, seed)
	if err != nil {
		return report{}, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	if err := e.prepare(); err != nil {
		return report{}, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	timed := min(time.Duration(seconds/3*float64(time.Second)), maxTracedWindow)
	o := runOpts{warm: timed / 6, timed: timed, tailPct: w.tailPct}
	ledger := ledgerOf(w)
	lc := &ledgerCtx{opts: o, m: make(map[string]float64, len(ledger))}
	var spoiled int
	if lc.untraced, err = runUnspoiled(e, o, &spoiled); err != nil {
		return report{}, nil, fmt.Errorf("%s: untraced window: %w", w.Name, err)
	}
	traced := o
	traced.rec = newRecorder(spanCapacity)
	if lc.traced, err = runUnspoiled(e, traced, &spoiled); err != nil {
		return report{}, nil, fmt.Errorf("%s: traced window: %w", w.Name, err)
	}
	lc.m["loadgen.invalid_windows"] = float64(spoiled)
	lc.opts.rec = traced.rec
	lc.spans = traced.rec.recorded()
	for k, v := range lc.traced.layer {
		lc.m[k] = v
	}
	if err := e.ledger(lc); err != nil {
		return report{}, nil, fmt.Errorf("%s: ledger: %w", w.Name, err)
	}
	all := traced.rec.recorded() // the ledger's isolated-call loops added theirs
	attempted := lc.traced.attempted + lc.untraced.attempted
	failed := lc.traced.failed + lc.untraced.failed
	if lc.untraced.rate.perSec > 0 {
		lc.m["trace.overhead_frac"] = 1 - lc.traced.rate.perSec/lc.untraced.rate.perSec
	}
	lc.m["trace.spans"] = float64(len(all))
	lc.m["fail_frac"] = float64(failed) / float64(max(attempted, 1))
	lc.m["rtt_p99_us"] = lc.traced.lat.p99us
	notes := lc.traced.notes
	if d := traced.rec.dropped.Load(); d > 0 {
		notes = append(notes, fmt.Sprintf("trace: %d spans beyond the recorder's capacity were dropped", d))
	}
	path := filepath.Join(outDir, w.Name+".trace.json")
	if err := writeTraceFile(path, all); err != nil {
		return report{}, nil, err
	}
	notes = append(notes, fmt.Sprintf("trace: %d spans written to %s", len(all), path))

	rep := report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(ledger))}
	for _, d := range ledger {
		rep.Metrics[d.Name] = metricValue{Value: lc.m[d.Name], Unit: d.Unit}
	}
	for k := range lc.m {
		if _, known := rep.Metrics[k]; !known {
			return report{}, nil, fmt.Errorf("%s: ledger filled in %q, which the catalog does not list", w.Name, k)
		}
	}
	return rep, notes, nil
}

// spanCapacity holds a traced window of the busiest workload: two
// classify spans per 64-packet batch at 10 Mpps for maxTracedWindow.
const (
	spanCapacity    = 1 << 20
	maxTracedWindow = 3 * time.Second
	windowAttempts  = 3
)

// runUnspoiled is one window of the traced run. A window the open-loop
// generator spoiled is discarded, spans too, counted, and run again;
// windowAttempts spoiled windows in a row fail the run.
func runUnspoiled(e env, o runOpts, spoiled *int) (outcome, error) {
	for attempt := 1; ; attempt++ {
		var kept int64
		if o.rec != nil {
			kept = o.rec.n.Load()
		}
		runtime.GC()
		out, err := e.run(o)
		if !errors.Is(err, errSpoiled) || attempt == windowAttempts {
			return out, err
		}
		*spoiled++
		if o.rec != nil {
			o.rec.n.Store(kept) // the window's goroutines have ended: drop its spans
		}
	}
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func printReport(w *workloadDef, traced bool, seed int64, rep report, notes []string) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("== %s  %s  seed %d\n", w.Name, kind, seed)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		if traced && m.Value == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Printf("  # %s\n", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // unreachable: report is plain data
	}
	fmt.Printf("%s\n", line)
}

func runOne(w *workloadDef, seed int64, seconds float64, traced bool, outDir string) (bool, error) {
	var rep report
	var notes []string
	var err error
	if traced {
		rep, notes, err = runTraced(w, seed, seconds, outDir)
	} else {
		rep, notes, err = runEndToEnd(w, seed, seconds)
	}
	if err != nil {
		return false, err
	}
	printReport(w, traced, seed, rep, notes)
	return rep.Correct, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	seed := flag.Int64("seed", defaultSeed, "seed of the traffic and update streams")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out", "bench/out", "directory the traced run writes <workload>.trace.json to")
	aa := flag.Int("aa", 0, "run N interleaved A/A pairs of this binary per workload and judge them against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		os.Stdout.Write(manifest())
		return
	}
	fp, _ := json.Marshal(hostFingerprint())
	fmt.Printf("host %s\n", fp)

	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []workloadDef{*w}
	}
	if *aa > 0 {
		if err := runAA(selected, *aa, *seed, *seconds); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	modes := []bool{*trace == 1}
	if *workload == "" {
		modes = []bool{false, true}
	}
	allCorrect := true
	for i := range selected {
		for _, traced := range modes {
			correct, err := runOne(&selected[i], *seed, *seconds, traced, *outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			allCorrect = allCorrect && correct
		}
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "bench: wrong answers or failed operations; see fail_frac above")
		os.Exit(1)
	}
}
