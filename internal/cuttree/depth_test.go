package cuttree

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/buildgov"
	"repro/internal/rules"
)

// depthBuilder is a builder over one full-space rule, for calling the
// recursion directly at a given depth, named like the algorithm it stands
// for.
func depthBuilder(name string) *builder {
	rs := rules.NewRuleSet("depth", []rules.Rule{{
		SrcPort: rules.PortRange{Lo: 0, Hi: 65535},
		DstPort: rules.PortRange{Lo: 0, Hi: 65535},
		Proto:   rules.ProtoMatch{Wildcard: true},
	}})
	t := &Tree{cfg: Config{Name: name, Binth: 1}, rs: rs}
	return &builder{t: t, gov: buildgov.Start(context.Background(), nil), boxes: rs.Boxes()}
}

// The hard depth guard must fire independently of the cuts configuration:
// calling the recursion directly past HardMaxDepth — as a degenerate rule
// set that defeats every leaf condition would — returns ErrDepthExceeded
// instead of recursing on. The guard runs before the pick, so it is the
// same for every algorithm; the error is one sentinel for both, so its
// text must name the algorithm that hit it.
func TestHardDepthGuardFiresDirectly(t *testing.T) {
	for _, name := range []string{"HiCuts", "HyperCuts"} {
		t.Run(strings.ToLower(name), func(t *testing.T) {
			_, err := depthBuilder(name).build(rules.FullBox(), []int{0}, HardMaxDepth+1)
			if !errors.Is(err, ErrDepthExceeded) {
				t.Fatalf("build at depth %d returned %v, want ErrDepthExceeded", HardMaxDepth+1, err)
			}
			if !strings.Contains(err.Error(), name+" depth") {
				t.Fatalf("error %q does not name %s", err, name)
			}
		})
	}
}

// A depth exactly at the bound is still legal; one past it is not — the
// guard is a ceiling on correct builds (every cut halves at least one of
// the 104 key bits), not a tunable.
func TestHardDepthBoundIsKeyBits(t *testing.T) {
	if HardMaxDepth != rules.KeyBits {
		t.Fatalf("HardMaxDepth = %d, want rules.KeyBits (%d)", HardMaxDepth, rules.KeyBits)
	}
	if _, err := depthBuilder("depth").build(rules.FullBox(), []int{0}, HardMaxDepth); err != nil {
		t.Fatalf("build at the exact bound failed: %v (a single rule is a leaf at any depth)", err)
	}
}

func TestSpecPackRoundTrip(t *testing.T) {
	for _, cuts := range [][]cut{
		{{dim: uint8(rules.DimSrcIP), log2nc: 5, log2cw: 27}},
		{{dim: uint8(rules.DimProto), log2nc: 1, log2cw: 7}},
		{{dim: uint8(rules.DimSrcIP), log2nc: 4, log2cw: 28}, {dim: uint8(rules.DimDstIP), log2nc: 3, log2cw: 29}},
		{{dim: uint8(rules.DimSrcPort), log2nc: 8, log2cw: 8}, {dim: uint8(rules.DimDstPort), log2nc: 2, log2cw: 14}},
	} {
		n := &node{ncuts: uint8(len(cuts))}
		copy(n.cuts[:], cuts)
		w := packInternal(n)
		if w&leafNodeFlag != 0 {
			t.Fatalf("internal word has leaf flag: %#x", w)
		}
		back, k := unpackInternal(w)
		if k != len(cuts) || back != n.cuts {
			t.Fatalf("round trip: %+v -> %+v (%d cuts)", cuts, back[:k], k)
		}
	}
}
