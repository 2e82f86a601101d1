package experiments

import (
	"fmt"

	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/linear"
	"repro/internal/memlayout"
	"repro/internal/npsim"
	"repro/internal/nptrace"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// Fig6Row is one bar pair of Figure 6: ExpCuts SRAM usage with and without
// hierarchical space aggregation.
type Fig6Row struct {
	RuleSet           string
	Rules             int
	WithoutAggBytes   int
	WithAggBytes      int
	Ratio             float64
	AvgUniqueChildren float64
	FitsWithout       bool // does the un-aggregated image fit the 4×8 MB SRAM?
	FitsWith          bool
}

// Fig6 measures the space-aggregation effect on all seven rule sets.
func Fig6(ctx Context) (Fig6Table, error) {
	ctx.fillDefaults()
	var rows Fig6Table
	for _, name := range rulegen.StandardNames() {
		rs, tree, err := paperTree(name)
		if err != nil {
			return nil, fmt.Errorf("fig6: %w", err)
		}
		full, err := tree.Full()
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", rs.Name, err)
		}
		st := tree.Stats()
		rows = append(rows, Fig6Row{
			RuleSet:           rs.Name,
			Rules:             rs.Len(),
			WithoutAggBytes:   full.MemoryBytes(),
			WithAggBytes:      tree.MemoryBytes(),
			Ratio:             float64(tree.MemoryBytes()) / float64(full.MemoryBytes()),
			AvgUniqueChildren: st.AvgUniqueChildren,
			FitsWithout:       full.Image().FitsHardware(),
			FitsWith:          tree.Image().FitsHardware(),
		})
	}
	return rows, nil
}

// String renders Figure 6.
func (rows Fig6Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.RuleSet, fmt.Sprint(r.Rules),
			kb(r.WithoutAggBytes), kb(r.WithAggBytes),
			fmt.Sprintf("%.1f%%", r.Ratio*100),
			fmt.Sprintf("%.1f", r.AvgUniqueChildren),
			fmt.Sprint(r.FitsWithout), fmt.Sprint(r.FitsWith),
		}
	}
	return "Figure 6 — ExpCuts SRAM usage, with vs without space aggregation\n" +
		renderTable([]string{"set", "rules", "noAgg(KB)", "agg(KB)", "ratio", "avgChildren", "fits(noAgg)", "fits(agg)"}, out)
}

// Fig7Row is one point of Figure 7: ExpCuts throughput and relative speedup
// versus the number of classification threads on CR04.
type Fig7Row struct {
	Threads        int
	ThroughputMbps float64
	Speedup        float64 // relative to the first point
}

// Fig7 sweeps the thread count 7..71 (1..9 MEs × 8 threads − 1 reserved)
// on the largest rule set.
func Fig7(ctx Context) (Fig7Table, error) {
	ctx.fillDefaults()
	rs, tree, err := paperTree("CR04")
	if err != nil {
		return nil, err
	}
	headers, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	progs := programs(tree, headers)
	var rows Fig7Table
	for mes := 1; mes <= 9; mes++ {
		threads := mes*8 - 1
		cfg := npsim.DefaultConfig()
		cfg.Threads = threads
		cfg.SRAM.Headroom = memlayout.PaperHeadroom
		r, err := npsim.Run(cfg, progs, ctx.Packets)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{Threads: threads, ThroughputMbps: r.ThroughputMbps})
	}
	for i := range rows {
		rows[i].Speedup = rows[i].ThroughputMbps / rows[0].ThroughputMbps
	}
	return rows, nil
}

// String renders Figure 7.
func (rows Fig7Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.Threads),
			fmt.Sprintf("%.0f", r.ThroughputMbps),
			fmt.Sprintf("%.2f", r.Speedup),
		}
	}
	return "Figure 7 — ExpCuts throughput vs threads (CR04, 64-byte packets)\n" +
		renderTable([]string{"threads", "Mbps", "speedup"}, out)
}

// Fig8Row is one point of Figure 8: throughput as a function of how many
// rules a packet linearly searches.
type Fig8Row struct {
	Rules          int
	ThroughputMbps float64
}

// Fig8 measures the linear-search effect: N disjoint rules crafted so that
// every packet matches the last one, forcing exactly N 6-word record reads
// per packet (§6.6: each access reads one 6-word rule record).
func Fig8(ctx Context) (Fig8Table, error) {
	ctx.fillDefaults()
	var rows Fig8Table
	for _, n := range []int{1, 3, 5, 8, 10, 13, 15, 18, 20} {
		rs := scanRules(n)
		cl := linear.New(rs)
		// Every packet matches rule n-1, scanning all n records.
		h := rules.Header{DstPort: uint16(1000 + n - 1), Proto: rules.ProtoTCP}
		prog := cl.Program(h)
		if prog.Result != n-1 {
			return nil, fmt.Errorf("fig8: crafted header matched rule %d, want %d", prog.Result, n-1)
		}
		r, err := ctx.simulate([]nptrace.Program{prog})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{Rules: n, ThroughputMbps: r.ThroughputMbps})
	}
	return rows, nil
}

// scanRules builds n disjoint single-port rules; a packet with destination
// port 1000+i matches exactly rule i after scanning rules 0..i.
func scanRules(n int) *rules.RuleSet {
	rs := make([]rules.Rule, n)
	for i := range rs {
		rs[i] = rules.Rule{
			SrcPort: rules.FullPortRange,
			DstPort: rules.PortRange{Lo: uint16(1000 + i), Hi: uint16(1000 + i)},
			Proto:   rules.ProtoMatch{Value: rules.ProtoTCP},
		}
	}
	return rules.NewRuleSet(fmt.Sprintf("scan-%d", n), rs)
}

// String renders Figure 8.
func (rows Fig8Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{fmt.Sprint(r.Rules), fmt.Sprintf("%.0f", r.ThroughputMbps)}
	}
	return "Figure 8 — linear-search effect: throughput vs rules scanned per packet\n" +
		renderTable([]string{"rules", "Mbps"}, out)
}

// Fig9Row is one rule-set column of Figure 9: the three algorithms'
// throughput side by side.
type Fig9Row struct {
	RuleSet      string
	Rules        int
	ExpCutsMbps  float64
	HiCutsMbps   float64
	HSMMbps      float64
	ExpCutsBytes int
	HiCutsBytes  int
	HSMBytes     int
}

// Fig9 compares ExpCuts, HiCuts (binth = 8) and HSM on all seven rule sets
// under the full application configuration.
func Fig9(ctx Context) (Fig9Table, error) {
	ctx.fillDefaults()
	var rows Fig9Table
	for _, name := range rulegen.StandardNames() {
		rs, ec, err := paperTree(name)
		if err != nil {
			return nil, fmt.Errorf("fig9: %w", err)
		}
		headers, err := ctx.headers(rs)
		if err != nil {
			return nil, err
		}
		hc, err := hicuts.New(rs, hicuts.Config{Headroom: memlayout.PaperHeadroom})
		if err != nil {
			return nil, fmt.Errorf("fig9 %s hicuts: %w", rs.Name, err)
		}
		hs, err := hsm.New(rs, hsm.Config{})
		if err != nil {
			return nil, fmt.Errorf("fig9 %s hsm: %w", rs.Name, err)
		}
		var mbps [3]float64
		for i, cl := range []tracedClassifier{ec, hc, hs} {
			r, err := ctx.simulate(programs(cl, headers))
			if err != nil {
				return nil, err
			}
			mbps[i] = r.ThroughputMbps
		}
		rows = append(rows, Fig9Row{
			RuleSet: rs.Name, Rules: rs.Len(),
			ExpCutsMbps: mbps[0], HiCutsMbps: mbps[1], HSMMbps: mbps[2],
			ExpCutsBytes: ec.MemoryBytes(), HiCutsBytes: hc.MemoryBytes(), HSMBytes: hs.MemoryBytes(),
		})
	}
	return rows, nil
}

// String renders Figure 9.
func (rows Fig9Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.RuleSet, fmt.Sprint(r.Rules),
			fmt.Sprintf("%.0f", r.ExpCutsMbps),
			fmt.Sprintf("%.0f", r.HiCutsMbps),
			fmt.Sprintf("%.0f", r.HSMMbps),
			mb(r.ExpCutsBytes), mb(r.HiCutsBytes), mb(r.HSMBytes),
		}
	}
	return "Figure 9 — algorithm comparison (Mbps at 71 threads; memory in MB)\n" +
		renderTable([]string{"set", "rules", "ExpCuts", "HiCuts", "HSM", "EC(MB)", "HC(MB)", "HSM(MB)"}, out)
}
