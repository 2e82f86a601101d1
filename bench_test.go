package repro

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// benchCtx keeps the per-iteration cost of the experiment benchmarks
// manageable; EXPERIMENTS.md numbers come from cmd/pcbench with the full
// context.
var benchCtx = experiments.Context{TraceLen: 400, Packets: 6000, Seed: 1, MatchFraction: 0.9}

// BenchmarkFig6SpaceAggregation regenerates Figure 6 (ExpCuts memory with
// vs without hierarchical space aggregation) and reports the CR04
// aggregation ratio.
func BenchmarkFig6SpaceAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Ratio, "aggRatio(CR04)")
		b.ReportMetric(float64(last.WithAggBytes)/1e6, "aggMB(CR04)")
	}
}

// BenchmarkFig7Speedup regenerates Figure 7 (throughput vs threads on
// CR04) and reports the 71-thread point.
func BenchmarkFig7Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].ThroughputMbps, "Mbps@71thr")
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup@71thr")
	}
}

// BenchmarkFig8LinearSearch regenerates Figure 8 (throughput vs rules
// linearly searched) and reports the 8-rule point the paper highlights.
func BenchmarkFig8LinearSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Rules == 8 {
				b.ReportMetric(r.ThroughputMbps, "Mbps@8rules")
			}
		}
	}
}

// BenchmarkFig9Comparison regenerates Figure 9 (ExpCuts vs HiCuts vs HSM on
// all seven rule sets) and reports the CR04 column.
func BenchmarkFig9Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.ExpCutsMbps, "ExpCuts(CR04)")
		b.ReportMetric(last.HiCutsMbps, "HiCuts(CR04)")
		b.ReportMetric(last.HSMMbps, "HSM(CR04)")
	}
}

// BenchmarkTab2Mapping regenerates Table 2 (multiprocessing vs context
// pipelining).
func BenchmarkTab2Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tab2(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputMbps, "multiMbps")
		b.ReportMetric(rows[1].ThroughputMbps, "pipelineMbps")
	}
}

// BenchmarkTab5Channels regenerates Table 5 (throughput vs SRAM channels).
func BenchmarkTab5Channels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tab5(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputMbps, "Mbps@1ch")
		b.ReportMetric(rows[3].ThroughputMbps, "Mbps@4ch")
	}
}

// BenchmarkAblationStride sweeps the cutting stride w.
func BenchmarkAblationStride(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationStride(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].ThroughputMbps, "Mbps@w8")
	}
}

// BenchmarkAblationHABS sweeps the HABS width v.
func BenchmarkAblationHABS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHABS(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[len(rows)-1].MemoryBytes)/1e6, "MB@v5")
	}
}

// BenchmarkAblationPopCount compares POP_COUNT against RISC emulation.
func BenchmarkAblationPopCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationPopCount(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputMbps/rows[1].ThroughputMbps, "hw/riscSpeedup")
	}
}

// BenchmarkAblationBinth sweeps HiCuts binth.
func BenchmarkAblationBinth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBinth(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputMbps, "Mbps@binth1")
	}
}

// BenchmarkAblationSharing compares node-sharing scopes.
func BenchmarkAblationSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSharing(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].Nodes)/float64(rows[0].Nodes), "siblings/globalNodes")
	}
}

// --- Native single-packet micro-benchmarks (Go-level, not NP cycles) ---

func benchSet(b *testing.B) (*RuleSet, []Header) {
	b.Helper()
	rs, err := StandardRuleSet("CR04")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := GenerateTrace(rs, 4096, 9, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	return rs, tr.Headers
}

// BenchmarkExpCutsClassify measures the native Go ExpCuts lookup on CR04.
func BenchmarkExpCutsClassify(b *testing.B) {
	rs, headers := benchSet(b)
	tree, err := NewExpCuts(rs, ExpCutsConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Classify(headers[i&4095])
	}
}

// BenchmarkHiCutsClassify measures the native HiCuts lookup on CR04.
func BenchmarkHiCutsClassify(b *testing.B) {
	rs, headers := benchSet(b)
	tree, err := NewHiCuts(rs, HiCutsConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Classify(headers[i&4095])
	}
}

// BenchmarkHSMClassify measures the native HSM lookup on CR04.
func BenchmarkHSMClassify(b *testing.B) {
	rs, headers := benchSet(b)
	cl, err := NewHSM(rs, HSMConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Classify(headers[i&4095])
	}
}

// BenchmarkRFCClassify measures the native RFC lookup on CR04.
func BenchmarkRFCClassify(b *testing.B) {
	rs, headers := benchSet(b)
	cl, err := NewRFC(rs, RFCConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Classify(headers[i&4095])
	}
}

// BenchmarkLinearClassify measures the linear-search floor on CR04.
func BenchmarkLinearClassify(b *testing.B) {
	rs, headers := benchSet(b)
	cl := NewLinear(rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Classify(headers[i&4095])
	}
}

// BenchmarkExpCutsBuild measures full ExpCuts construction — the tree,
// its native arena and its serialized image — on CR04 and on FW03, the
// largest paper tree: time, bytes and allocations per build.
func BenchmarkExpCutsBuild(b *testing.B) {
	for _, set := range []string{"CR04", "FW03"} {
		b.Run(set, func(b *testing.B) {
			rs, err := StandardRuleSet(set)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewExpCuts(rs, ExpCutsConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Engine plumbing (a quick look while working; bench/ is the benchmark of record) ---

// constClassifier answers rule 0 for everything: what is left when it
// serves is everything but classification.
type constClassifier struct{}

func (constClassifier) Classify(Header) int { return 0 }
func (constClassifier) ClassifyBatch(hs []Header, out []int) {
	for i := range hs {
		out[i] = 0
	}
}

// BenchmarkServeEngineOverhead is the plumbing's own rate: dispatch,
// queues, sequencer and emit around a classifier that costs nothing, at
// the shape bench/ serves with (two shards, 64-packet batches, ordered)
// over 2^18 packets a pass; bench/ reports the same measurement per
// packet as the ledger row engine.overhead_ns_per_pkt. The flows are
// CR04's; constClassifier ignores the rules.
func BenchmarkServeEngineOverhead(b *testing.B) {
	rs, err := StandardRuleSet("CR04")
	if err != nil {
		b.Fatal(err)
	}
	flows, err := GenerateTrace(rs, 1<<16, 11, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	headers := make([]Header, 0, 1<<18)
	for len(headers) < cap(headers) {
		headers = append(headers, flows.Headers...)
	}
	cfg := engine.Config{Shards: 2, BatchSize: 64, PreserveOrder: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunEngine(constClassifier{}, cfg, headers, func(EngineResult) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(headers))/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkNPSimulate measures the discrete-event simulator itself
// (simulated packets per wall-clock second).
func BenchmarkNPSimulate(b *testing.B) {
	rs, headers := benchSet(b)
	tree, err := NewExpCuts(rs, ExpCutsConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateThroughput(tree, headers[:256], DefaultNPConfig(), 5000); err != nil {
			b.Fatal(err)
		}
	}
}
