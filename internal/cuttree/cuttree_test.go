package cuttree_test

import (
	"testing"

	"repro/internal/cuttree"
	"repro/internal/hicuts"
	"repro/internal/hypercuts"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// buildFunc builds one algorithm's tree at its default configuration on
// the given number of SRAM channels (0: the default).
type buildFunc func(rs *rules.RuleSet, channels int) (*cuttree.Tree, error)

// forEachAlgo runs f as one subtest per algorithm.
func forEachAlgo(t *testing.T, f func(t *testing.T, build buildFunc)) {
	t.Run("hicuts", func(t *testing.T) {
		f(t, func(rs *rules.RuleSet, ch int) (*cuttree.Tree, error) {
			return hicuts.New(rs, hicuts.Config{Channels: ch})
		})
	})
	t.Run("hypercuts", func(t *testing.T) {
		f(t, func(rs *rules.RuleSet, ch int) (*cuttree.Tree, error) {
			return hypercuts.New(rs, hypercuts.Config{Channels: ch})
		})
	})
}

func buildSet(t *testing.T, kind rulegen.Kind, size int, seed int64) *rules.RuleSet {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: kind, Size: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func trace(t *testing.T, rs *rules.RuleSet, n int, seed int64) []rules.Header {
	t.Helper()
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: n, Seed: seed, MatchFraction: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Headers
}

func TestClassifyMatchesOracle(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, build buildFunc) {
		for _, tc := range []struct {
			kind rulegen.Kind
			size int
		}{
			{rulegen.Firewall, 85},
			{rulegen.Firewall, 310},
			{rulegen.CoreRouter, 460},
			{rulegen.Random, 120},
		} {
			rs := buildSet(t, tc.kind, tc.size, 21)
			tree, err := build(rs, 0)
			if err != nil {
				t.Fatalf("%v/%d: %v", tc.kind, tc.size, err)
			}
			for _, h := range trace(t, rs, 2000, 22) {
				if got, want := tree.Classify(h), rs.Match(h); got != want {
					t.Fatalf("%v/%d: Classify(%v) = %d, oracle = %d", tc.kind, tc.size, h, got, want)
				}
			}
		}
	})
}

func TestSerializedLookupMatchesNative(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, build buildFunc) {
		rs := buildSet(t, rulegen.CoreRouter, 300, 23)
		tree, err := build(rs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Verify(trace(t, rs, 3000, 24)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestChannelRestriction(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, build buildFunc) {
		rs := buildSet(t, rulegen.Firewall, 100, 29)
		for channels := 1; channels <= 4; channels++ {
			tree, err := build(rs, channels)
			if err != nil {
				t.Fatal(err)
			}
			words := tree.Image().ChannelWords()
			for c := channels; c < len(words); c++ {
				if words[c] != 0 {
					t.Errorf("channels=%d: channel %d has %d words", channels, c, words[c])
				}
			}
			if err := tree.Verify(trace(t, rs, 300, 30)); err != nil {
				t.Fatalf("channels=%d: %v", channels, err)
			}
		}
	})
}

func TestWorstCaseAccessesBoundHolds(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, build buildFunc) {
		for _, rs := range []*rules.RuleSet{buildSet(t, rulegen.CoreRouter, 250, 33), buildSet(t, rulegen.Firewall, 150, 307)} {
			tree, err := build(rs, 0)
			if err != nil {
				t.Fatal(err)
			}
			bound := tree.Stats().WorstCaseAccesses
			for _, h := range trace(t, rs, 1000, 34) {
				p := tree.Program(h)
				if p.Result != tree.Classify(h) {
					t.Fatalf("%s: program result mismatch for %v", rs.Name, h)
				}
				if p.Accesses() > bound {
					t.Fatalf("%s: program used %d accesses, bound %d", rs.Name, p.Accesses(), bound)
				}
			}
		}
	})
}

// TestLookupAllocationBound caps the serialized lookup at one allocation
// per call. It decodes a node's header word into a fixed array and copies
// a leaf's rule ids into a stack buffer; a lookup that decoded the cuts
// into a slice at every node made six per call on HyperCuts.
func TestLookupAllocationBound(t *testing.T) {
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		t.Fatal(err)
	}
	hs := trace(t, rs, 1000, 7)
	forEachAlgo(t, func(t *testing.T, build buildFunc) {
		tree, err := build(rs, 0)
		if err != nil {
			t.Fatal(err)
		}
		var mem nptrace.Mem = nptrace.NullMem{R: tree.Image()}
		i := 0
		allocs := testing.AllocsPerRun(len(hs), func() {
			tree.Lookup(mem, hs[i%len(hs)])
			i++
		})
		if allocs > 1 {
			t.Errorf("Lookup made %.2f allocations per call, want <= 1", allocs)
		}
	})
}

// TestBuildAllocationBound caps the heap allocations of one CR04 build.
// The builder sorts a node's rules into its cells through one array and
// an offset stack, keeps its scratch (projection list, signature,
// per-depth aggregation maps) for the whole build and writes leaves
// straight into the image: ≈ 31 000 allocations for HiCuts and ≈ 25 000
// for HyperCuts, where per-cell rule lists, a range slice per rule per
// node and a slice per leaf made 93 045 and 101 690. The race detector
// adds ≈ 7 000.
func TestBuildAllocationBound(t *testing.T) {
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		t.Fatal(err)
	}
	forEachAlgo(t, func(t *testing.T, build buildFunc) {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := build(rs, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 60000 {
			t.Errorf("New(CR04) made %.0f allocations, want <= 60000", allocs)
		}
		t.Logf("New(CR04) made %.0f allocations", allocs)
	})
}
