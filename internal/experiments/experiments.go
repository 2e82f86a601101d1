// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) plus the ablations DESIGN.md calls out, and the
// scaling-by-rule-count table (rulescale.go). Each driver returns typed
// rows whose String is a paper-style text table. Paper lists the paper's
// drivers once: cmd/pcbench prints them, the root package's
// BenchmarkPaperExperiments times them, testdata/paper.golden pins their
// text and EXPERIMENTS.md records their output against the paper's
// numbers. Serving throughput and latency are measured by bench/
// (BENCHMARK.json), not here.
//
// The paper drivers are deterministic: rule sets, traces and the NP
// simulation are seeded. RuleScale times real builds and engine runs.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/expcuts"
	"repro/internal/memlayout"
	"repro/internal/npsim"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// Experiment is one entry of the paper's evaluation: its pcbench name and
// its driver, whose rows render as text.
type Experiment struct {
	Name string
	Run  func(Context) (fmt.Stringer, error)
}

// Each driver returns its rows as one of these tables; String renders
// the table as paper-style text.
type (
	Fig6Table      []Fig6Row
	Fig7Table      []Fig7Row
	Fig8Table      []Fig8Row
	Fig9Table      []Fig9Row
	Tab2Table      []Tab2Row
	Tab4Table      []Tab4Row
	Tab5Table      []Tab5Row
	StrideTable    []StrideRow
	HABSTable      []HABSRow
	PopCountTable  []PopCountRow
	BinthTable     []BinthRow
	SharingTable   []SharingRow
	RuleScaleTable []RuleScaleRow
)

// Paper lists the paper's experiments in print order: Figures 6–9,
// Tables 2, 4 and 5, the ablations, and the extended comparison on
// extendedSet.
func Paper(extendedSet string) []Experiment {
	return []Experiment{
		{"fig6", stringer(Fig6)},
		{"fig7", stringer(Fig7)},
		{"fig8", stringer(Fig8)},
		{"fig9", stringer(Fig9)},
		{"tab2", stringer(Tab2)},
		{"tab4", stringer(Tab4)},
		{"tab5", stringer(Tab5)},
		{"stride", stringer(AblationStride)},
		{"habs", stringer(AblationHABS)},
		{"popcount", stringer(AblationPopCount)},
		{"binth", stringer(AblationBinth)},
		{"sharing", stringer(AblationSharing)},
		{"extended", func(ctx Context) (fmt.Stringer, error) { return Extended(ctx, extendedSet) }},
	}
}

// stringer adapts a driver to Experiment.Run.
func stringer[T fmt.Stringer](run func(Context) (T, error)) func(Context) (fmt.Stringer, error) {
	return func(ctx Context) (fmt.Stringer, error) { return run(ctx) }
}

// Context carries the shared experiment parameters.
type Context struct {
	// TraceLen is the number of distinct headers whose access programs
	// feed the simulator (cycled to reach Packets).
	TraceLen int
	// Packets is the number of packets each simulation classifies.
	Packets int
	// Seed drives trace generation.
	Seed int64
	// MatchFraction is the rule-directed share of the traces.
	MatchFraction float64
}

// DefaultContext matches the settings used for EXPERIMENTS.md.
func DefaultContext() Context {
	return Context{TraceLen: 2000, Packets: 25000, Seed: 1, MatchFraction: 0.9}
}

func (c *Context) fillDefaults() {
	d := DefaultContext()
	if c.TraceLen == 0 {
		c.TraceLen = d.TraceLen
	}
	if c.Packets == 0 {
		c.Packets = d.Packets
	}
	if c.MatchFraction == 0 {
		c.MatchFraction = d.MatchFraction
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// tracedClassifier is what every serialized classifier exposes to the
// experiment drivers.
type tracedClassifier interface {
	Name() string
	MemoryBytes() int
	Program(h rules.Header) nptrace.Program
}

// headers generates the experiment trace for a rule set.
func (c Context) headers(rs *rules.RuleSet) ([]rules.Header, error) {
	tr, err := pktgen.Generate(rs, pktgen.Config{
		Count:         c.TraceLen,
		Seed:          c.Seed,
		MatchFraction: c.MatchFraction,
	})
	if err != nil {
		return nil, err
	}
	return tr.Headers, nil
}

// programs records the access programs of cl over the trace.
func programs(cl tracedClassifier, headers []rules.Header) []nptrace.Program {
	out := make([]nptrace.Program, len(headers))
	for i, h := range headers {
		out[i] = cl.Program(h)
	}
	return out
}

// simulate runs programs on the paper's full configuration: 71 threads,
// Table 4 bandwidth headroom.
func (c Context) simulate(progs []nptrace.Program) (npsim.Result, error) {
	cfg := npsim.DefaultConfig()
	cfg.SRAM.Headroom = memlayout.PaperHeadroom
	return npsim.Run(cfg, progs, c.Packets)
}

// paperTree loads a named rule set and builds its ExpCuts tree on the
// paper's configuration: stride w = 8, Table 4 bandwidth headroom.
func paperTree(set string) (*rules.RuleSet, *expcuts.Tree, error) {
	rs, err := rulegen.Standard(set)
	if err != nil {
		return nil, nil, err
	}
	tree, err := expcuts.New(rs, expcuts.Config{Headroom: memlayout.PaperHeadroom})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", set, err)
	}
	return rs, tree, nil
}

// renderTable formats rows as a fixed-width text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i := range header {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func mb(bytes int) string {
	return fmt.Sprintf("%.2f", float64(bytes)/1e6)
}

func kb(bytes int) string {
	return fmt.Sprintf("%.0f", float64(bytes)/1e3)
}
