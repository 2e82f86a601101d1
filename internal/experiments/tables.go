package experiments

import (
	"fmt"

	"repro/internal/expcuts"
	"repro/internal/memlayout"
	"repro/internal/npsim"
	"repro/internal/pipeline"
	"repro/internal/rulegen"
)

// Tab2Row compares the two task-partitioning strategies of Table 2.
type Tab2Row struct {
	Mapping         string
	ThroughputMbps  float64
	BottleneckStage int // -1 for multiprocessing
}

// Tab2 simulates multiprocessing vs context-pipelining for the CR04
// classification stage (Table 2's qualitative comparison, quantified).
func Tab2(ctx Context) (Tab2Table, error) {
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
	app := pipeline.DefaultAppConfig()
	mp, err := pipeline.RunMultiprocessing(app, progs, ctx.Packets)
	if err != nil {
		return nil, err
	}
	cp, err := pipeline.RunContextPipelining(app, progs, ctx.Packets)
	if err != nil {
		return nil, err
	}
	return Tab2Table{
		{Mapping: "multiprocessing", ThroughputMbps: mp.ThroughputMbps, BottleneckStage: -1},
		{Mapping: "context-pipelining", ThroughputMbps: cp.ThroughputMbps, BottleneckStage: cp.BottleneckStage},
	}, nil
}

// String renders Table 2.
func (rows Tab2Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		stage := "-"
		if r.BottleneckStage >= 0 {
			stage = fmt.Sprint(r.BottleneckStage)
		}
		out[i] = []string{r.Mapping, fmt.Sprintf("%.0f", r.ThroughputMbps), stage}
	}
	return "Table 2 — task partitioning: multiprocessing vs context pipelining (CR04)\n" +
		renderTable([]string{"mapping", "Mbps", "bottleneck stage"}, out)
}

// Tab4Row is one channel row of Table 4: utilization, headroom and the
// decision-tree levels allocated to it.
type Tab4Row struct {
	Channel     int
	Utilization float64
	Headroom    float64
	Levels      string
}

// Tab4 reproduces the memory-allocation table: the CR04 ExpCuts tree's 13
// levels distributed over the four SRAM channels in proportion to
// bandwidth headroom.
func Tab4(ctx Context) (Tab4Table, error) {
	ctx.fillDefaults()
	_, tree, err := paperTree("CR04")
	if err != nil {
		return nil, err
	}
	alloc, err := memlayout.AllocateLevels(
		memlayout.UniformDemand(tree.Depth()), memlayout.PaperHeadroom, memlayout.NumChannels)
	if err != nil {
		return nil, err
	}
	rows := make(Tab4Table, memlayout.NumChannels)
	for c := range rows {
		lo, hi := -1, -1
		for lvl, ch := range alloc {
			if int(ch) == c {
				if lo < 0 {
					lo = lvl
				}
				hi = lvl
			}
		}
		levels := "-"
		if lo >= 0 {
			levels = fmt.Sprintf("level %d~%d", lo, hi)
		}
		rows[c] = Tab4Row{
			Channel:     c,
			Utilization: 1 - memlayout.PaperHeadroom[c],
			Headroom:    memlayout.PaperHeadroom[c],
			Levels:      levels,
		}
	}
	return rows, nil
}

// String renders Table 4.
func (rows Tab4Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("SRAM#%d", r.Channel),
			fmt.Sprintf("%.0f%%", r.Utilization*100),
			fmt.Sprintf("%.0f%%", r.Headroom*100),
			r.Levels,
		}
	}
	return "Table 4 — memory allocation across SRAM channels (CR04 tree levels)\n" +
		renderTable([]string{"channel", "utilization", "headroom", "allocation"}, out)
}

// Tab5Row is one column of Table 5: throughput versus the number of SRAM
// channels holding the ExpCuts tree.
type Tab5Row struct {
	Channels       int
	ThroughputMbps float64
}

// Tab5 sweeps 1..4 SRAM channels on CR04 at 71 threads. Channels are used
// in descending-headroom order — the paper notes its single-channel case
// has 100% bandwidth headroom.
func Tab5(ctx Context) (Tab5Table, error) {
	ctx.fillDefaults()
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		return nil, err
	}
	headers, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	// Descending-headroom channel order: 100%, 69%, 53%, 44%.
	ordered := memlayout.Headroom{1.00, 0.69, 0.53, 0.44}
	var rows Tab5Table
	for n := 1; n <= memlayout.NumChannels; n++ {
		tree, err := expcuts.New(rs, expcuts.Config{Channels: n, Headroom: ordered})
		if err != nil {
			return nil, err
		}
		cfg := npsim.DefaultConfig()
		cfg.SRAM.Headroom = ordered
		r, err := npsim.Run(cfg, programs(tree, headers), ctx.Packets)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Tab5Row{Channels: n, ThroughputMbps: r.ThroughputMbps})
	}
	return rows, nil
}

// String renders Table 5.
func (rows Tab5Table) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{fmt.Sprint(r.Channels), fmt.Sprintf("%.0f", r.ThroughputMbps)}
	}
	return "Table 5 — SRAM channel impact (ExpCuts, CR04, 71 threads)\n" +
		renderTable([]string{"channels", "Mbps"}, out)
}
