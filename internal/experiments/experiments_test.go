package experiments

import (
	"strings"
	"testing"
)

// light is a reduced-cost context for tests; the shapes asserted here are
// robust to the smaller trace and packet counts.
var light = Context{TraceLen: 400, Packets: 6000, Seed: 1, MatchFraction: 0.9}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full rule-set sweep")
	}
	rows, err := Fig6(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: aggregation keeps ~15% of the memory.
		if r.Ratio > 0.5 {
			t.Errorf("%s: aggregation ratio %.2f, want well below 0.5", r.RuleSet, r.Ratio)
		}
		if r.WithAggBytes >= r.WithoutAggBytes {
			t.Errorf("%s: aggregation did not shrink memory", r.RuleSet)
		}
		// §6.3: sparse children at 256 cuts.
		if r.AvgUniqueChildren > 16 {
			t.Errorf("%s: avg unique children %.1f", r.RuleSet, r.AvgUniqueChildren)
		}
		if !r.FitsWith {
			t.Errorf("%s: aggregated tree must fit the 4×8MB SRAM", r.RuleSet)
		}
	}
	text := RenderFig6(rows)
	if !strings.Contains(text, "CR04") {
		t.Error("rendering misses CR04")
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 (1..9 MEs)", len(rows))
	}
	if rows[0].Threads != 7 || rows[8].Threads != 71 {
		t.Errorf("thread endpoints = %d..%d, want 7..71", rows[0].Threads, rows[8].Threads)
	}
	// Near-linear speedup: monotone, and the 71-thread point well above
	// half the ideal 71/7 ≈ 10.1×.
	for i := 1; i < len(rows); i++ {
		if rows[i].ThroughputMbps <= rows[i-1].ThroughputMbps {
			t.Errorf("throughput not monotone at %d threads", rows[i].Threads)
		}
	}
	if last := rows[8].Speedup; last < 6 {
		t.Errorf("71-thread speedup %.1f, want near-linear (paper: almost linear)", last)
	}
	// The paper's headline: ~7 Gbps at 71 threads.
	if got := rows[8].ThroughputMbps; got < 5500 || got > 9500 {
		t.Errorf("71-thread throughput %.0f Mbps, want in the paper's regime (~7000)", got)
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(light)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Rules != 1 || rows[len(rows)-1].Rules != 20 {
		t.Fatalf("rule sweep endpoints wrong: %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ThroughputMbps > rows[i-1].ThroughputMbps {
			t.Errorf("throughput not decreasing at N=%d", rows[i].Rules)
		}
	}
	// The paper's observation: beyond 8 rules, throughput < 3 Gbps.
	for _, r := range rows {
		if r.Rules > 8 && r.ThroughputMbps >= 3000 {
			t.Errorf("N=%d: %.0f Mbps, paper says < 3000 beyond 8 rules", r.Rules, r.ThroughputMbps)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full rule-set sweep")
	}
	rows, err := Fig9(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	var ecMin, ecMax float64
	for i, r := range rows {
		// ExpCuts wins on every rule set.
		if r.ExpCutsMbps <= r.HiCutsMbps || r.ExpCutsMbps <= r.HSMMbps {
			t.Errorf("%s: ExpCuts (%.0f) should beat HiCuts (%.0f) and HSM (%.0f)",
				r.RuleSet, r.ExpCutsMbps, r.HiCutsMbps, r.HSMMbps)
		}
		// HiCuts never beats HSM by a meaningful margin (the paper's
		// ordering has HSM above HiCuts).
		if r.HiCutsMbps > r.HSMMbps*1.05 {
			t.Errorf("%s: HiCuts (%.0f) above HSM (%.0f)", r.RuleSet, r.HiCutsMbps, r.HSMMbps)
		}
		if i == 0 {
			ecMin, ecMax = r.ExpCutsMbps, r.ExpCutsMbps
		} else {
			if r.ExpCutsMbps < ecMin {
				ecMin = r.ExpCutsMbps
			}
			if r.ExpCutsMbps > ecMax {
				ecMax = r.ExpCutsMbps
			}
		}
	}
	// ExpCuts is stable across rule sets (paper: "no matter how large the
	// rule sets are, ExpCuts obtains stable throughput").
	if ecMax/ecMin > 1.25 {
		t.Errorf("ExpCuts throughput varies %.0f..%.0f; paper reports stability", ecMin, ecMax)
	}
	// HSM decreases from the smallest to the largest set (Θ(log N)).
	if rows[6].HSMMbps >= rows[0].HSMMbps {
		t.Errorf("HSM on CR04 (%.0f) should be below FW01 (%.0f)", rows[6].HSMMbps, rows[0].HSMMbps)
	}
}

func TestTab2Shape(t *testing.T) {
	rows, err := Tab2(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].ThroughputMbps <= rows[1].ThroughputMbps {
		t.Errorf("multiprocessing (%.0f) should beat context pipelining (%.0f)",
			rows[0].ThroughputMbps, rows[1].ThroughputMbps)
	}
}

func TestTab4Shape(t *testing.T) {
	rows, err := Tab4(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's Table 4 lists levels 0~13 (fourteen labels); the w=8
	// tree actually has ⌈104/8⌉ = 13 levels, so the headroom-proportional
	// split lands one level earlier on the last two channels.
	want := []string{"level 0~1", "level 2~6", "level 7~8", "level 9~12"}
	for i, r := range rows {
		if r.Levels != want[i] {
			t.Errorf("channel %d allocation = %q, want %q", i, r.Levels, want[i])
		}
		if r.Headroom+r.Utilization != 1 {
			t.Errorf("channel %d: headroom %v + utilization %v != 1", i, r.Headroom, r.Utilization)
		}
	}
}

func TestTab5Shape(t *testing.T) {
	rows, err := Tab5(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ThroughputMbps < rows[i-1].ThroughputMbps*0.99 {
			t.Errorf("throughput decreased at %d channels", rows[i].Channels)
		}
	}
	// One channel cannot reach 5 Gbps (paper §6.5 point 1); four channels
	// land in the paper's regime.
	if rows[0].ThroughputMbps >= 5800 {
		t.Errorf("1 channel = %.0f Mbps, paper says it cannot reach ~5 Gbps", rows[0].ThroughputMbps)
	}
	if rows[3].ThroughputMbps < 6000 {
		t.Errorf("4 channels = %.0f Mbps, want the paper's ~7 Gbps regime", rows[3].ThroughputMbps)
	}
	if rows[3].ThroughputMbps <= rows[0].ThroughputMbps*1.2 {
		t.Errorf("4 channels (%.0f) should be well above 1 channel (%.0f)",
			rows[3].ThroughputMbps, rows[0].ThroughputMbps)
	}
}

func TestAblationStrideShape(t *testing.T) {
	rows, err := AblationStride(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Wider strides: shallower trees, better worst case.
	for i := 1; i < len(rows); i++ {
		if rows[i].Depth >= rows[i-1].Depth {
			t.Errorf("depth not decreasing with stride")
		}
		if rows[i].ThroughputMbps <= rows[i-1].ThroughputMbps {
			t.Errorf("throughput should improve with stride (fewer accesses)")
		}
	}
}

func TestAblationHABSShape(t *testing.T) {
	rows, err := AblationHABS(light)
	if err != nil {
		t.Fatal(err)
	}
	// Wider HABS tracks runs more precisely: memory never increases.
	for i := 1; i < len(rows); i++ {
		if rows[i].MemoryBytes > rows[i-1].MemoryBytes {
			t.Errorf("memory increased from v=%d to v=%d", rows[i-1].HabsV, rows[i].HabsV)
		}
	}
}

func TestAblationPopCountShape(t *testing.T) {
	rows, err := AblationPopCount(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	hw, risc := rows[0].ThroughputMbps, rows[1].ThroughputMbps
	if hw <= risc {
		t.Errorf("hardware POP_COUNT (%.0f) should beat RISC emulation (%.0f)", hw, risc)
	}
}

func TestAblationBinthShape(t *testing.T) {
	rows, err := AblationBinth(light)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputMbps <= 0 || r.MemoryBytes <= 0 {
			t.Errorf("binth %d: degenerate row %+v", r.Binth, r)
		}
	}
}

func TestAblationSharingShape(t *testing.T) {
	rows, err := AblationSharing(light)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Nodes >= rows[1].Nodes {
		t.Errorf("global sharing (%d nodes) should be smaller than sibling-only (%d)",
			rows[0].Nodes, rows[1].Nodes)
	}
}

func TestExtendedShape(t *testing.T) {
	rows, err := Extended(light, "CR01")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 algorithms", len(rows))
	}
	byName := map[string]ExtendedRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	// Linear search is the floor.
	for _, name := range []string{"ExpCuts", "HiCuts", "HyperCuts", "HSM", "RFC"} {
		if byName[name].ThroughputMbps <= byName["Linear"].ThroughputMbps {
			t.Errorf("%s (%.0f) should beat linear search (%.0f)",
				name, byName[name].ThroughputMbps, byName["Linear"].ThroughputMbps)
		}
	}
	// RFC trades memory for the fewest accesses.
	if byName["RFC"].WorstAccesses >= byName["ExpCuts"].WorstAccesses {
		t.Errorf("RFC worst accesses (%d) should be below ExpCuts (%d)",
			byName["RFC"].WorstAccesses, byName["ExpCuts"].WorstAccesses)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	// Smoke-test every renderer against minimal rows.
	checks := []string{
		RenderFig6([]Fig6Row{{RuleSet: "X", Ratio: 0.15}}),
		RenderFig7([]Fig7Row{{Threads: 7}}),
		RenderFig8([]Fig8Row{{Rules: 1}}),
		RenderFig9([]Fig9Row{{RuleSet: "X"}}),
		RenderTab2([]Tab2Row{{Mapping: "m", BottleneckStage: -1}}),
		RenderTab4([]Tab4Row{{Levels: "level 0~1"}}),
		RenderTab5([]Tab5Row{{Channels: 1}}),
		RenderAblationStride([]StrideRow{{StrideW: 8}}),
		RenderAblationHABS([]HABSRow{{HabsV: 4}}),
		RenderAblationPopCount([]PopCountRow{{Variant: "x"}}),
		RenderAblationBinth([]BinthRow{{Binth: 8}}),
		RenderAblationSharing([]SharingRow{{Mode: "global"}}),
		RenderExtended([]ExtendedRow{{Algorithm: "ExpCuts"}}, "CR01"),
	}
	for i, s := range checks {
		if !strings.Contains(s, "\n") || len(s) < 20 {
			t.Errorf("renderer %d output too small: %q", i, s)
		}
	}

	// A budget-tripped cell prints no memory or throughput, and says why.
	trip := RenderRuleScale([]RuleScaleRow{{Algo: "expcuts", Rules: 100000, RuleSet: "ACL1_100K", BuildMs: 60000, BuildError: "budget exceeded"}})
	for _, want := range []string{"—", "budget trip"} {
		if !strings.Contains(trip, want) {
			t.Errorf("budget-trip row missing %q:\n%s", want, trip)
		}
	}
}

// Every name update.LadderFromNames knows is a rulescale algorithm;
// hicuts, the default ladder's second rung, used to be refused.
func TestRuleScaleShape(t *testing.T) {
	algos := []string{"expcuts", "hicuts", "linear"}
	rows, err := RuleScale(light, []int{1000}, algos)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(algos) {
		t.Fatalf("rows = %d, want %d", len(rows), len(algos))
	}
	for i, algo := range algos {
		r := rows[i]
		if r.Algo != algo || r.Rules == 0 {
			t.Errorf("row %d = %+v, want %s on a non-empty set", i, r, algo)
		}
		if buildOutcome(r) != "built" {
			t.Errorf("%s: outcome %q (%s), want built", algo, buildOutcome(r), r.BuildError)
		}
		if r.MemoryBytes <= 0 || r.CriticalPathMpps <= 0 {
			t.Errorf("%s: degenerate row %+v", algo, r)
		}
	}
	if _, err := RuleScale(light, []int{1000}, []string{"nosuchalgo"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
