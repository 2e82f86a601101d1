package conformance

import (
	"fmt"
	"testing"

	"repro/internal/expcuts"
	"repro/internal/pktgen"
	"repro/internal/rules"
)

// pipelineBuilders are ExpCuts at both strides, the classifiers exposing
// the staged walk behind the benchmark's expcuts.pipelined_ns_per_pkt row.
var pipelineBuilders = []struct {
	name  string
	build func(rs *rules.RuleSet) (*expcuts.Tree, error)
}{
	{"expcuts-w8", func(rs *rules.RuleSet) (*expcuts.Tree, error) {
		return expcuts.New(rs, expcuts.Config{})
	}},
	{"expcuts-w4", func(rs *rules.RuleSet) (*expcuts.Tree, error) {
		return expcuts.New(rs, expcuts.Config{StrideW: 4})
	}},
}

// TestPipelinedWalkMatchesOracle: the software-pipelined walk must
// reproduce the linear oracle exactly on every workload — including the
// degenerate OverlapGrid/WildcardStorm trees — across group sizes 1, 3,
// 8 and 64, affine on and off, and odd batch tails.
func TestPipelinedWalkMatchesOracle(t *testing.T) {
	for _, rs := range batchSets(t) {
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1000, Seed: 3005, MatchFraction: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		hs := tr.Headers
		oracle := make([]int, len(hs))
		for i, h := range hs {
			oracle[i] = rs.Match(h)
		}
		for _, b := range pipelineBuilders {
			b := b
			t.Run(fmt.Sprintf("%s/%s", rs.Name, b.name), func(t *testing.T) {
				cl, err := b.build(rs)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]int, len(hs))
				for _, group := range []int{1, 3, 8, 64} {
					for _, affine := range []bool{false, true} {
						// Batch splits with odd tails: 7 leaves a
						// 1000%7 tail, len(hs) is one whole-trace call.
						for _, size := range []int{7, 64, len(hs)} {
							for i := range out {
								out[i] = -999 // poison: detects unwritten slots
							}
							for lo := 0; lo < len(hs); lo += size {
								hi := min(lo+size, len(hs))
								cl.ClassifyBatchPipelined(hs[lo:hi], out[lo:hi], group, affine)
							}
							for i := range hs {
								if out[i] != oracle[i] {
									t.Fatalf("group %d affine %v size %d: packet %d (%v): pipelined %d, oracle %d",
										group, affine, size, i, hs[i], out[i], oracle[i])
								}
							}
						}
					}
				}
			})
		}
	}
}
