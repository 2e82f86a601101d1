package repro

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// BenchmarkPaperExperiments times each paper experiment — Figures 6–9,
// Tables 2, 4 and 5, the ablations and the extended comparison on CR01 —
// at the tests' context, the one internal/experiments/testdata/paper.golden
// is rendered at; EXPERIMENTS.md numbers come from cmd/pcbench with the
// full context.
func BenchmarkPaperExperiments(b *testing.B) {
	ctx := experiments.Context{TraceLen: 400, Packets: 6000, Seed: 1, MatchFraction: 0.9}
	for _, e := range experiments.Paper("CR01") {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
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
