package experiments

import (
	"fmt"

	"repro/internal/expcuts"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rfc"
	"repro/internal/rulegen"
)

// StrideRow is one point of the stride ablation: the w of 2^w cuts per
// node trades tree depth (and so the explicit access bound) against memory.
type StrideRow struct {
	StrideW        uint
	Depth          int
	WorstAccesses  int
	MemoryBytes    int
	ThroughputMbps float64
}

// AblationStride sweeps w ∈ {2, 4, 8} on CR02 (§4.2.1: the paper fixes
// w = 8; smaller strides save memory but deepen the tree).
func AblationStride(ctx Context) (StrideTable, error) {
	ctx.fillDefaults()
	rs, err := rulegen.Standard("CR02")
	if err != nil {
		return nil, err
	}
	headers, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	var rows StrideTable
	for _, w := range []uint{2, 4, 8} {
		v := w
		if v > 4 {
			v = 4
		}
		tree, err := expcuts.New(rs, expcuts.Config{StrideW: w, HabsV: v, Headroom: memlayout.PaperHeadroom})
		if err != nil {
			return nil, fmt.Errorf("stride %d: %w", w, err)
		}
		r, err := ctx.simulate(programs(tree, headers))
		if err != nil {
			return nil, err
		}
		rows = append(rows, StrideRow{
			StrideW:        w,
			Depth:          tree.Depth(),
			WorstAccesses:  tree.Stats().WorstCaseAccesses,
			MemoryBytes:    tree.MemoryBytes(),
			ThroughputMbps: r.ThroughputMbps,
		})
	}
	return rows, nil
}

// String renders the stride ablation.
func (rows StrideTable) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.StrideW), fmt.Sprint(r.Depth), fmt.Sprint(r.WorstAccesses),
			mb(r.MemoryBytes), fmt.Sprintf("%.0f", r.ThroughputMbps),
		}
	}
	return "Ablation — stride w (CR02): depth/memory/throughput trade\n" +
		renderTable([]string{"w", "depth", "worstAcc", "mem(MB)", "Mbps"}, out)
}

// HABSRow is one point of the HABS-width ablation.
type HABSRow struct {
	HabsV       uint
	MemoryBytes int
}

// AblationHABS sweeps the HABS exponent v on CR02 at w = 8 (§4.2.2: the
// paper packs a 16-bit HABS, v = 4, into the node word; wider strings
// track runs more precisely and store fewer duplicate sub-arrays).
func AblationHABS(ctx Context) (HABSTable, error) {
	ctx.fillDefaults()
	rs, err := rulegen.Standard("CR02")
	if err != nil {
		return nil, err
	}
	var rows HABSTable
	for _, v := range []uint{1, 2, 4, 5} {
		tree, err := expcuts.New(rs, expcuts.Config{StrideW: 8, HabsV: v, Headroom: memlayout.PaperHeadroom})
		if err != nil {
			return nil, fmt.Errorf("habs v=%d: %w", v, err)
		}
		rows = append(rows, HABSRow{HabsV: v, MemoryBytes: tree.MemoryBytes()})
	}
	return rows, nil
}

// String renders the HABS ablation.
func (rows HABSTable) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{fmt.Sprint(r.HabsV), fmt.Sprint(1 << r.HabsV), mb(r.MemoryBytes)}
	}
	return "Ablation — HABS width v (CR02, w=8): aggregated memory\n" +
		renderTable([]string{"v", "bits", "mem(MB)"}, out)
}

// PopCountRow compares the hardware POP_COUNT instruction against RISC
// emulation (§5.4).
type PopCountRow struct {
	Variant        string
	CyclesPerOp    uint32
	ThroughputMbps float64
}

// AblationPopCount runs the same ExpCuts lookup under the two
// instruction-selection variants.
func AblationPopCount(ctx Context) (PopCountTable, error) {
	ctx.fillDefaults()
	rs, tree, err := paperTree("CR04")
	if err != nil {
		return nil, err
	}
	headers, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	var rows PopCountTable
	for _, variant := range []struct {
		name  string
		costs nptrace.Costs
	}{
		{"POP_COUNT (hardware)", nptrace.DefaultCosts},
		{"RISC emulation", riscCosts()},
	} {
		progs := make([]nptrace.Program, len(headers))
		for i, h := range headers {
			progs[i] = tree.ProgramCosts(h, variant.costs)
		}
		r, err := ctx.simulate(progs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PopCountRow{
			Variant:        variant.name,
			CyclesPerOp:    variant.costs.PopCount,
			ThroughputMbps: r.ThroughputMbps,
		})
	}
	return rows, nil
}

func riscCosts() nptrace.Costs {
	c := nptrace.DefaultCosts
	c.PopCount = c.PopCountRISC
	return c
}

// String renders the POP_COUNT ablation.
func (rows PopCountTable) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Variant, fmt.Sprint(r.CyclesPerOp), fmt.Sprintf("%.0f", r.ThroughputMbps)}
	}
	return "Ablation — POP_COUNT instruction vs RISC emulation (CR04)\n" +
		renderTable([]string{"variant", "cycles/op", "Mbps"}, out)
}

// BinthRow is one point of the HiCuts binth sweep.
type BinthRow struct {
	Binth          int
	MemoryBytes    int
	MaxLeafRules   int
	ThroughputMbps float64
}

// AblationBinth sweeps HiCuts binth ∈ {1, 2, 4, 8, 16} on FW02 (§6.6
// motivates ExpCuts as the binth → 1 limit; small binth needs overlap
// pruning to stay buildable).
func AblationBinth(ctx Context) (BinthTable, error) {
	ctx.fillDefaults()
	rs, err := rulegen.Standard("FW02")
	if err != nil {
		return nil, err
	}
	headers, err := ctx.headers(rs)
	if err != nil {
		return nil, err
	}
	var rows BinthTable
	for _, binth := range []int{1, 2, 4, 8, 16} {
		tree, err := hicuts.New(rs, hicuts.Config{
			Binth:        binth,
			PruneCovered: binth <= 2,
			Headroom:     memlayout.PaperHeadroom,
		})
		if err != nil {
			return nil, fmt.Errorf("binth %d: %w", binth, err)
		}
		r, err := ctx.simulate(programs(tree, headers))
		if err != nil {
			return nil, err
		}
		rows = append(rows, BinthRow{
			Binth:          binth,
			MemoryBytes:    tree.MemoryBytes(),
			MaxLeafRules:   tree.Stats().MaxLeafRules,
			ThroughputMbps: r.ThroughputMbps,
		})
	}
	return rows, nil
}

// String renders the binth sweep.
func (rows BinthTable) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprint(r.Binth), mb(r.MemoryBytes),
			fmt.Sprint(r.MaxLeafRules), fmt.Sprintf("%.0f", r.ThroughputMbps),
		}
	}
	return "Ablation — HiCuts binth sweep (FW02)\n" +
		renderTable([]string{"binth", "mem(MB)", "maxLeaf", "Mbps"}, out)
}

// SharingRow is one point of the node-sharing ablation.
type SharingRow struct {
	Mode        string
	Nodes       int
	MemoryBytes int
}

// AblationSharing compares global node sharing (ExpCuts) against
// sibling-only sharing (HiCuts-style pointer aggregation) on FW02.
func AblationSharing(ctx Context) (SharingTable, error) {
	ctx.fillDefaults()
	rs, err := rulegen.Standard("FW02")
	if err != nil {
		return nil, err
	}
	var rows SharingTable
	for _, mode := range []expcuts.SharingMode{expcuts.ShareGlobal, expcuts.ShareSiblings} {
		tree, err := expcuts.New(rs, expcuts.Config{Sharing: mode, Headroom: memlayout.PaperHeadroom})
		if err != nil {
			return nil, fmt.Errorf("sharing %v: %w", mode, err)
		}
		rows = append(rows, SharingRow{
			Mode:        mode.String(),
			Nodes:       tree.Stats().Nodes,
			MemoryBytes: tree.MemoryBytes(),
		})
	}
	return rows, nil
}

// String renders the sharing ablation.
func (rows SharingTable) String() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Mode, fmt.Sprint(r.Nodes), mb(r.MemoryBytes)}
	}
	return "Ablation — node sharing scope (FW02, w=8)\n" +
		renderTable([]string{"mode", "nodes", "mem(MB)"}, out)
}

// ExtendedRow is one row of the extended comparison including RFC and
// linear search.
type ExtendedRow struct {
	Algorithm      string
	ThroughputMbps float64
	MemoryBytes    int
	WorstAccesses  int
}

// ExtendedTable is the extended comparison on one rule set, one row per
// classifier.
type ExtendedTable struct {
	RuleSet string
	Rows    []ExtendedRow
}

// Extended compares all six classifiers on one rule set — the paper's
// three, the HyperCuts and RFC extensions, and the linear-search floor.
func Extended(ctx Context, setName string) (ExtendedTable, error) {
	ctx.fillDefaults()
	t := ExtendedTable{RuleSet: setName}
	rs, ec, err := paperTree(setName)
	if err != nil {
		return t, err
	}
	headers, err := ctx.headers(rs)
	if err != nil {
		return t, err
	}
	hc, err := hicuts.New(rs, hicuts.Config{Headroom: memlayout.PaperHeadroom})
	if err != nil {
		return t, err
	}
	hsCl, err := hsm.New(rs, hsm.Config{})
	if err != nil {
		return t, err
	}
	rf, err := rfc.New(rs, rfc.Config{})
	if err != nil {
		return t, err
	}
	hyper, err := hypercuts.New(rs, hypercuts.Config{Headroom: memlayout.PaperHeadroom})
	if err != nil {
		return t, err
	}
	ln := linear.New(rs)
	worst := map[string]int{
		"ExpCuts":   ec.Stats().WorstCaseAccesses,
		"HiCuts":    hc.Stats().WorstCaseAccesses,
		"HyperCuts": hyper.Stats().WorstCaseAccesses,
		"HSM":       hsCl.Stats().WorstCaseAccesses,
		"RFC":       rf.Stats().WorstCaseAccesses,
		"Linear":    rs.Len(),
	}
	for _, cl := range []tracedClassifier{ec, hc, hyper, hsCl, rf, ln} {
		r, err := ctx.simulate(programs(cl, headers))
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, ExtendedRow{
			Algorithm:      cl.Name(),
			ThroughputMbps: r.ThroughputMbps,
			MemoryBytes:    cl.MemoryBytes(),
			WorstAccesses:  worst[cl.Name()],
		})
	}
	return t, nil
}

// String renders the extended comparison.
func (t ExtendedTable) String() string {
	out := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = []string{
			r.Algorithm, fmt.Sprintf("%.0f", r.ThroughputMbps),
			mb(r.MemoryBytes), fmt.Sprint(r.WorstAccesses),
		}
	}
	return fmt.Sprintf("Extended comparison — all classifiers on %s\n", t.RuleSet) +
		renderTable([]string{"algorithm", "Mbps", "mem(MB)", "worstAcc"}, out)
}
