package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/update"
)

// RuleScaleRow is one (algorithm, rule count) cell of the scaling-by-rule-
// count curve — the experiment that turns the repo's single-point Mpps
// numbers into the 100k–1M story of ROADMAP item 1. Builds run under
// buildgov.ScaledBudget for their rule count; a cell whose build trips its
// budget is *kept*, with BuildError set and zero throughput, because
// "this tree cannot be built inside a sane resource envelope at this
// scale" is the result, not a measurement failure — it is precisely the
// NuevoMatch motivation for the learned-index rung.
type RuleScaleRow struct {
	Algo    string
	Rules   int
	RuleSet string
	// BuildMs is wall-clock build time — until success or budget trip.
	BuildMs float64
	// MemoryBytes is the built classifier's resident estimate (0 on
	// build failure).
	MemoryBytes int
	// CriticalPathMpps is packets / busiest shard busy time, minimum
	// across reps (0 on build failure).
	CriticalPathMpps float64
	// BuildError carries the budget trip when the build failed.
	BuildError string
}

// rulescaleReps is the timed-run count per cell; the build dominates the
// cell's cost, so fewer reps than the scaling sweep.
const rulescaleReps = 3

// RuleScaleSizes is the default sweep: the paper's scale, and two orders
// of magnitude beyond it. The 1M point is reachable through the CLI but
// not default — linear's measurement alone takes minutes there.
var RuleScaleSizes = []int{1000, 10000, 100000}

// RuleScaleAlgos is the default algorithm set: both tree shapes the paper
// evaluates, the total linear baseline, and the learned range index.
var RuleScaleAlgos = []string{"expcuts", "hsm", "linear", "rmi"}

// RuleScale measures build time, memory and critical-path Mpps for each
// algorithm at each rule-set size, on the deterministic ACL presets. The
// packet count shrinks with rule count (floor 2000) so the linear
// baseline stays measurable at 100k+ rules.
func RuleScale(ctx Context, sizes []int, algos []string) ([]RuleScaleRow, error) {
	ctx.fillDefaults()
	if len(sizes) == 0 {
		sizes = RuleScaleSizes
	}
	if len(algos) == 0 {
		algos = RuleScaleAlgos
	}
	var rows []RuleScaleRow
	for _, size := range sizes {
		gc := rulegen.LargeForSize(size)
		rs, err := rulegen.Generate(gc)
		if err != nil {
			return nil, fmt.Errorf("rulescale: %w", err)
		}
		trace, err := ctx.headers(rs)
		if err != nil {
			return nil, err
		}
		packets := ctx.Packets
		if size > 0 {
			if scaled := ctx.Packets * 1000 / size; scaled < packets {
				packets = scaled
			}
			if packets < 2000 {
				packets = 2000
			}
		}
		hs := make([]rules.Header, packets)
		for i := range hs {
			hs[i] = trace[i%len(trace)]
		}

		for _, algo := range algos {
			row, err := ruleScaleCell(algo, rs, gc.Name, hs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ruleScaleCell builds one algorithm under the scaled budget and measures
// its engine critical path.
func ruleScaleCell(algo string, rs *rules.RuleSet, setName string, hs []rules.Header) (RuleScaleRow, error) {
	row := RuleScaleRow{Algo: algo, Rules: len(rs.Rules), RuleSet: setName}
	budget := buildgov.ScaledBudget(len(rs.Rules))

	rungs, err := update.LadderFromNames([]string{algo}, budget)
	if err != nil {
		return row, fmt.Errorf("rulescale: %w", err)
	}
	start := time.Now()
	cl, err := rungs[0].Build(context.Background(), rs)
	row.BuildMs = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		if !errors.Is(err, buildgov.ErrBudgetExceeded) {
			return row, fmt.Errorf("rulescale: building %s on %s: %w", algo, setName, err)
		}
		row.BuildError = err.Error()
		return row, nil
	}
	row.MemoryBytes = cl.MemoryBytes()

	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	var busiest time.Duration
	for rep := 0; rep < rulescaleReps; rep++ {
		st, err := engine.RunContext(context.Background(), cl, cfg, hs, func(engine.Result) {})
		if err != nil {
			return row, fmt.Errorf("rulescale: %s run on %s: %w", algo, setName, err)
		}
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
	if busiest > 0 {
		row.CriticalPathMpps = float64(len(hs)) / busiest.Seconds() / 1e6
	}
	return row, nil
}

// RenderRuleScale formats the scaling-by-rule-count table.
func RenderRuleScale(rows []RuleScaleRow) string {
	table := make([][]string, len(rows))
	for i, r := range rows {
		mpps := fmt.Sprintf("%.2f", r.CriticalPathMpps)
		mem := fmt.Sprintf("%.1f", float64(r.MemoryBytes)/(1<<20))
		if r.BuildError != "" {
			mpps = "—"
			mem = "—"
		}
		table[i] = []string{
			r.RuleSet,
			fmt.Sprintf("%d", r.Rules),
			r.Algo,
			fmt.Sprintf("%.0f", r.BuildMs),
			mem,
			mpps,
			buildOutcome(r),
		}
	}
	return "Scaling by rule count — critical-path Mpps per algorithm (ScaledBudget per cell)\n" +
		renderTable([]string{"Set", "Rules", "Algo", "Build ms", "Mem MiB", "Mpps", "Outcome"}, table)
}

func buildOutcome(r RuleScaleRow) string {
	if r.BuildError == "" {
		return "built"
	}
	return "budget trip"
}
