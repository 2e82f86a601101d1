package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper.golden from the drivers")

// light is the tests' context and goldenSet the extended comparison's
// rule set: testdata/paper.golden is the paper text at these, which is
// also what `pcbench -packets 6000 -trace 400 -set CR01` prints for the
// Paper experiments. The full context costs minutes per run; the shapes
// the claims check hold at this one too.
var light = Context{TraceLen: 400, Packets: 6000, Seed: 1, MatchFraction: 0.9}

const (
	goldenSet  = "CR01"
	goldenFile = "testdata/paper.golden"
)

// paper holds each Paper entry's rows at light, run once per test binary:
// the golden and the claims read the same rows.
var paper struct {
	once   sync.Once
	tables map[string]fmt.Stringer
	text   string
	err    error
}

func paperTables(t *testing.T) (map[string]fmt.Stringer, string) {
	t.Helper()
	paper.once.Do(func() {
		paper.tables = map[string]fmt.Stringer{}
		var b strings.Builder
		for _, e := range Paper(goldenSet) {
			tab, err := e.Run(light)
			if err != nil {
				paper.err = fmt.Errorf("%s: %w", e.Name, err)
				return
			}
			paper.tables[e.Name] = tab
			fmt.Fprintf(&b, "%s\n\n", tab)
		}
		paper.text = b.String()
	})
	if paper.err != nil {
		t.Fatal(paper.err)
	}
	return paper.tables, paper.text
}

// TestPaperGolden compares every figure and table, digit for digit, with
// testdata/paper.golden. A change that moves the paper's numbers on
// purpose re-pins them with `go test ./internal/experiments -update`.
func TestPaperGolden(t *testing.T) {
	_, got := paperTables(t)
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading the golden (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs (rerun with -update if the change is meant)\n got: %q\nwant: %q", goldenFile, i+1, g, w)
		}
	}
}

// claim adapts a check on one driver's rows to the claims table.
func claim[T fmt.Stringer](check func(t *testing.T, rows T)) func(*testing.T, fmt.Stringer) {
	return func(t *testing.T, tab fmt.Stringer) { check(t, tab.(T)) }
}

// claims are what the paper says about each figure and table, checked on
// the rows the golden renders. Row counts and sweep endpoints are left to
// the golden.
var claims = []struct {
	experiment string
	check      func(*testing.T, fmt.Stringer)
}{
	{"fig6", claim(func(t *testing.T, rows Fig6Table) {
		for _, r := range rows {
			// The paper's headline: aggregation keeps ~15% of the memory.
			if r.Ratio > 0.5 {
				t.Errorf("%s: aggregation ratio %.2f, want well below 0.5", r.RuleSet, r.Ratio)
			}
			// §6.3: sparse children at 256 cuts.
			if r.AvgUniqueChildren > 16 {
				t.Errorf("%s: avg unique children %.1f", r.RuleSet, r.AvgUniqueChildren)
			}
			if !r.FitsWith {
				t.Errorf("%s: aggregated tree must fit the 4×8MB SRAM", r.RuleSet)
			}
		}
	})},
	{"fig7", claim(func(t *testing.T, rows Fig7Table) {
		// Near-linear speedup: monotone, and the 71-thread point well
		// above half the ideal 71/7 ≈ 10.1×.
		for i := 1; i < len(rows); i++ {
			if rows[i].ThroughputMbps <= rows[i-1].ThroughputMbps {
				t.Errorf("throughput not monotone at %d threads", rows[i].Threads)
			}
		}
		last := rows[len(rows)-1]
		if last.Speedup < 6 {
			t.Errorf("71-thread speedup %.1f, want near-linear (paper: almost linear)", last.Speedup)
		}
		// The paper's headline: ~7 Gbps at 71 threads.
		if last.ThroughputMbps < 5500 || last.ThroughputMbps > 9500 {
			t.Errorf("71-thread throughput %.0f Mbps, want in the paper's regime (~7000)", last.ThroughputMbps)
		}
	})},
	{"fig8", claim(func(t *testing.T, rows Fig8Table) {
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
	})},
	{"fig9", claim(func(t *testing.T, rows Fig9Table) {
		ecMin, ecMax := rows[0].ExpCutsMbps, rows[0].ExpCutsMbps
		for _, r := range rows {
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
			ecMin, ecMax = min(ecMin, r.ExpCutsMbps), max(ecMax, r.ExpCutsMbps)
		}
		// ExpCuts is stable across rule sets (paper: "no matter how large
		// the rule sets are, ExpCuts obtains stable throughput").
		if ecMax/ecMin > 1.25 {
			t.Errorf("ExpCuts throughput varies %.0f..%.0f; paper reports stability", ecMin, ecMax)
		}
		// HSM decreases from the smallest to the largest set (Θ(log N)).
		first, last := rows[0], rows[len(rows)-1]
		if last.HSMMbps >= first.HSMMbps {
			t.Errorf("HSM on %s (%.0f) should be below %s (%.0f)", last.RuleSet, last.HSMMbps, first.RuleSet, first.HSMMbps)
		}
	})},
	{"tab2", claim(func(t *testing.T, rows Tab2Table) {
		if rows[0].ThroughputMbps <= rows[1].ThroughputMbps {
			t.Errorf("multiprocessing (%.0f) should beat context pipelining (%.0f)",
				rows[0].ThroughputMbps, rows[1].ThroughputMbps)
		}
	})},
	{"tab4", claim(func(t *testing.T, rows Tab4Table) {
		// The paper's Table 4 lists levels 0~13 (fourteen labels); the w=8
		// tree actually has ⌈104/8⌉ = 13 levels, so the headroom-
		// proportional split lands one level earlier on the last two
		// channels.
		want := []string{"level 0~1", "level 2~6", "level 7~8", "level 9~12"}
		for i, r := range rows {
			if r.Levels != want[i] {
				t.Errorf("channel %d allocation = %q, want %q", i, r.Levels, want[i])
			}
			if r.Headroom+r.Utilization != 1 {
				t.Errorf("channel %d: headroom %v + utilization %v != 1", i, r.Headroom, r.Utilization)
			}
		}
	})},
	{"tab5", claim(func(t *testing.T, rows Tab5Table) {
		for i := 1; i < len(rows); i++ {
			if rows[i].ThroughputMbps < rows[i-1].ThroughputMbps*0.99 {
				t.Errorf("throughput decreased at %d channels", rows[i].Channels)
			}
		}
		// One channel cannot reach 5 Gbps (paper §6.5 point 1); four
		// channels land in the paper's regime.
		one, four := rows[0].ThroughputMbps, rows[3].ThroughputMbps
		if one >= 5800 {
			t.Errorf("1 channel = %.0f Mbps, paper says it cannot reach ~5 Gbps", one)
		}
		if four < 6000 {
			t.Errorf("4 channels = %.0f Mbps, want the paper's ~7 Gbps regime", four)
		}
		if four <= one*1.2 {
			t.Errorf("4 channels (%.0f) should be well above 1 channel (%.0f)", four, one)
		}
	})},
	{"stride", claim(func(t *testing.T, rows StrideTable) {
		// Wider strides: shallower trees, better worst case.
		for i := 1; i < len(rows); i++ {
			if rows[i].Depth >= rows[i-1].Depth {
				t.Errorf("depth not decreasing with stride")
			}
			if rows[i].ThroughputMbps <= rows[i-1].ThroughputMbps {
				t.Errorf("throughput should improve with stride (fewer accesses)")
			}
		}
	})},
	{"habs", claim(func(t *testing.T, rows HABSTable) {
		// Wider HABS tracks runs more precisely: memory never increases.
		for i := 1; i < len(rows); i++ {
			if rows[i].MemoryBytes > rows[i-1].MemoryBytes {
				t.Errorf("memory increased from v=%d to v=%d", rows[i-1].HabsV, rows[i].HabsV)
			}
		}
	})},
	{"popcount", claim(func(t *testing.T, rows PopCountTable) {
		if hw, risc := rows[0].ThroughputMbps, rows[1].ThroughputMbps; hw <= risc {
			t.Errorf("hardware POP_COUNT (%.0f) should beat RISC emulation (%.0f)", hw, risc)
		}
	})},
	{"binth", claim(func(t *testing.T, rows BinthTable) {
		for _, r := range rows {
			if r.ThroughputMbps <= 0 || r.MemoryBytes <= 0 {
				t.Errorf("binth %d: degenerate row %+v", r.Binth, r)
			}
		}
	})},
	{"sharing", claim(func(t *testing.T, rows SharingTable) {
		if rows[0].Nodes >= rows[1].Nodes {
			t.Errorf("global sharing (%d nodes) should be smaller than sibling-only (%d)",
				rows[0].Nodes, rows[1].Nodes)
		}
	})},
	{"extended", claim(func(t *testing.T, tab ExtendedTable) {
		byName := map[string]ExtendedRow{}
		for _, r := range tab.Rows {
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
	})},
}

func TestPaperClaims(t *testing.T) {
	tables, _ := paperTables(t)
	for _, c := range claims {
		t.Run(c.experiment, func(t *testing.T) { c.check(t, tables[c.experiment]) })
	}
}

// RuleScale is timed, so it stays out of the golden; a budget-tripped cell
// prints no memory or throughput, and says why.
func TestRenderersProduceTables(t *testing.T) {
	trip := RuleScaleTable{{Algo: "expcuts", Rules: 100000, RuleSet: "ACL1_100K", BuildMs: 60000, BuildError: "budget exceeded"}}.String()
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
