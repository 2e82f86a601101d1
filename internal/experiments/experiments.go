// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) plus the ablations DESIGN.md calls out, and the
// scaling-by-rule-count table (rulescale.go). Each driver returns typed
// rows and a paper-style text rendering; cmd/pcbench prints them, the root
// package's figure benchmarks time them, and EXPERIMENTS.md records their
// output against the paper's numbers. Serving throughput and latency are
// measured by bench/ (BENCHMARK.json), not here.
//
// The paper drivers are deterministic: rule sets, traces and the NP
// simulation are seeded. RuleScale times real builds and engine runs.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/memlayout"
	"repro/internal/npsim"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

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

// standardSets loads the seven named rule sets.
func standardSets() ([]*rules.RuleSet, error) {
	return rulegen.StandardSets()
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
