package conformance

import (
	"fmt"
	"testing"

	"repro/internal/expcuts"
	"repro/internal/faultinject"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/pktgen"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// batchClassifier is the serving fast path's contract, rules.BatchClassifier,
// with a name for the subtests: ClassifyBatch(hs, out) must equal
// out[i] = Classify(hs[i]).
type batchClassifier interface {
	rules.BatchClassifier
	Name() string
}

// batchBuilders is one variant per algorithm — the surface "every
// algorithm's ClassifyBatch agrees with its Classify" is proven over.
var batchBuilders = []struct {
	name  string
	build func(rs *rules.RuleSet) (batchClassifier, error)
}{
	{"expcuts", func(rs *rules.RuleSet) (batchClassifier, error) {
		return expcuts.New(rs, expcuts.Config{})
	}},
	{"expcuts-w4", func(rs *rules.RuleSet) (batchClassifier, error) {
		return expcuts.New(rs, expcuts.Config{StrideW: 4})
	}},
	{"hicuts", func(rs *rules.RuleSet) (batchClassifier, error) {
		return hicuts.New(rs, hicuts.Config{})
	}},
	{"hypercuts", func(rs *rules.RuleSet) (batchClassifier, error) {
		return hypercuts.New(rs, hypercuts.Config{})
	}},
	{"hsm", func(rs *rules.RuleSet) (batchClassifier, error) {
		return hsm.New(rs, hsm.Config{})
	}},
	{"rfc", func(rs *rules.RuleSet) (batchClassifier, error) {
		return rfc.New(rs, rfc.Config{})
	}},
	{"linear", func(rs *rules.RuleSet) (batchClassifier, error) {
		return linear.New(rs), nil
	}},
}

// batchSets mixes structured, random, and pathological rule sets: the
// overlap grid and wildcard storm exercise degenerate trees (heavy
// replication, leaf-at-root shapes) where a batched walk's bookkeeping is
// most likely to diverge from the scalar walk.
func batchSets(t *testing.T) []*rules.RuleSet {
	t.Helper()
	sets := []*rules.RuleSet{
		faultinject.OverlapGrid("overlap-grid-6", 6),
		faultinject.WildcardStorm("wildcard-storm-32", 32, 7),
	}
	for _, cfg := range []rulegen.Config{
		{Kind: rulegen.CoreRouter, Size: 200, Seed: 3001},
		{Kind: rulegen.Random, Size: 40, Seed: 3002},
	} {
		rs, err := rulegen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, rs)
	}
	return sets
}

// TestBatchMatchesClassify is the batched analogue of the oracle matrix:
// for every algorithm on every workload, ClassifyBatch must reproduce the
// scalar Classify answers exactly, across batch sizes including 1, a
// non-power-of-two, the engine default, and the whole trace at once.
func TestBatchMatchesClassify(t *testing.T) {
	for _, rs := range batchSets(t) {
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1000, Seed: 3003, MatchFraction: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		hs := tr.Headers
		for _, b := range batchBuilders {
			b := b
			t.Run(fmt.Sprintf("%s/%s", rs.Name, b.name), func(t *testing.T) {
				cl, err := b.build(rs)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]int, len(hs))
				for i, h := range hs {
					want[i] = cl.Classify(h)
				}
				out := make([]int, len(hs))
				for _, size := range []int{1, 3, 64, len(hs)} {
					for i := range out {
						out[i] = -999 // poison: detects unwritten slots
					}
					for lo := 0; lo < len(hs); lo += size {
						hi := min(lo+size, len(hs))
						cl.ClassifyBatch(hs[lo:hi], out[lo:hi])
					}
					for i := range hs {
						if out[i] != want[i] {
							t.Fatalf("batch size %d: packet %d (%v): ClassifyBatch = %d, Classify = %d",
								size, i, hs[i], out[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestBatchEmptyAndAliasedSlices pins the contract edges: a zero-length
// batch is a no-op, and out slices longer than hs only have their first
// len(hs) slots written.
func TestBatchEmptyAndAliasedSlices(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 50, Seed: 3004})
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: rules.ProtoTCP}
	for _, b := range batchBuilders {
		cl, err := b.build(rs)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		cl.ClassifyBatch(nil, nil) // must not panic
		out := []int{-7, -7, -7}
		cl.ClassifyBatch([]rules.Header{h}, out)
		if out[0] != cl.Classify(h) {
			t.Errorf("%s: out[0] = %d, want %d", b.name, out[0], cl.Classify(h))
		}
		if out[1] != -7 || out[2] != -7 {
			t.Errorf("%s: ClassifyBatch wrote past len(hs): %v", b.name, out)
		}
	}
}
