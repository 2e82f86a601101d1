package hicuts

import (
	"math/rand"
	"testing"

	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

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

func TestBinthBoundsLeafSize(t *testing.T) {
	fw200 := buildSet(t, rulegen.Firewall, 200, 25)
	// binth = 1 builds 4 million nodes on FW-200; 20 rules of the same
	// generator build 28 000 and still reach the depth cap, where leaves
	// are forced past binth.
	fw20 := buildSet(t, rulegen.Firewall, 20, 25)
	for _, binth := range []int{1, 2, 4, 8, 16} {
		rs := fw200
		if binth == 1 {
			rs = fw20
		}
		tree, err := New(rs, Config{Binth: binth, PruneCovered: true})
		if err != nil {
			t.Fatal(err)
		}
		st := tree.Stats()
		// Leaves can exceed binth only when rules are inseparable; for
		// this structured set a small slack is acceptable but unbounded
		// growth is not.
		if st.MaxLeafRules > binth+8 {
			t.Errorf("binth=%d: max leaf rules %d", binth, st.MaxLeafRules)
		}
		if st.MaxDepth < 1 {
			t.Errorf("binth=%d: depth %d", binth, st.MaxDepth)
		}
		if binth == 1 && (st.MaxDepth != DefaultConfig().MaxDepth || st.MaxLeafRules <= binth) {
			t.Errorf("binth=1: depth %d, max leaf %d rules; want forced leaves at the depth cap %d",
				st.MaxDepth, st.MaxLeafRules, DefaultConfig().MaxDepth)
		}
	}
}

func TestSmallerBinthDeeperTree(t *testing.T) {
	rs := buildSet(t, rulegen.CoreRouter, 400, 26)
	t1, err := New(rs, Config{Binth: 1, PruneCovered: true})
	if err != nil {
		t.Fatal(err)
	}
	t16, err := New(rs, Config{Binth: 16, PruneCovered: true})
	if err != nil {
		t.Fatal(err)
	}
	if t1.Stats().Nodes <= t16.Stats().Nodes {
		t.Errorf("binth=1 nodes %d should exceed binth=16 nodes %d",
			t1.Stats().Nodes, t16.Stats().Nodes)
	}
	// Tighter leaves trade memory for fewer leaf accesses.
	if t1.Stats().MemoryWords <= t16.Stats().MemoryWords {
		t.Errorf("binth=1 memory %d should exceed binth=16 memory %d",
			t1.Stats().MemoryWords, t16.Stats().MemoryWords)
	}
}

func TestProgramAccountsLinearSearch(t *testing.T) {
	rs := buildSet(t, rulegen.Firewall, 150, 27)
	tree, err := New(rs, Config{Binth: 8})
	if err != nil {
		t.Fatal(err)
	}
	maxRecordReads := 0
	for _, h := range trace(t, rs, 500, 28) {
		p := tree.Program(h)
		if p.Result != tree.Classify(h) {
			t.Fatalf("program result mismatch for %v", h)
		}
		records := 0
		for _, s := range p.Steps {
			if s.Words == 6 {
				records++
			}
		}
		if records > maxRecordReads {
			maxRecordReads = records
		}
	}
	if maxRecordReads == 0 {
		t.Error("no leaf linear search observed; binth=8 tree should do record reads")
	}
	if maxRecordReads > tree.Stats().MaxLeafRules {
		t.Errorf("observed %d record reads > max leaf size %d", maxRecordReads, tree.Stats().MaxLeafRules)
	}
}

func TestConfigValidation(t *testing.T) {
	rs := buildSet(t, rulegen.Firewall, 20, 31)
	bad := []Config{
		{Binth: -1},
		{SpFac: 0.5},
		{MaxCuts: 3},
		{Channels: 5},
	}
	for i, cfg := range bad {
		if _, err := New(rs, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestDuplicateRulesDoNotLoop(t *testing.T) {
	// Identical boxes with different actions cannot be separated by any
	// cut; the tree must terminate with a leaf holding all of them.
	r := rules.Rule{
		SrcIP:   rules.Prefix{Addr: 0x0A000000, Len: 8},
		SrcPort: rules.FullPortRange,
		DstPort: rules.FullPortRange,
		Proto:   rules.AnyProto,
	}
	dup := make([]rules.Rule, 20)
	for i := range dup {
		dup[i] = r
		dup[i].Action = rules.Action(i % 2)
	}
	rs := rules.NewRuleSet("dups", dup)
	tree, err := New(rs, Config{Binth: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 0x0A010101}
	if got := tree.Classify(h); got != 0 {
		t.Errorf("Classify = %d, want 0 (highest priority duplicate)", got)
	}
}

func TestPruningPreservesClassification(t *testing.T) {
	// Rule overlap elimination changes the tree, never the answers.
	rs := buildSet(t, rulegen.Firewall, 150, 90)
	plain, err := New(rs, Config{Binth: 2})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := New(rs, Config{Binth: 2, PruneCovered: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats().MemoryWords >= plain.Stats().MemoryWords {
		t.Errorf("pruning should shrink memory: %d vs %d words",
			pruned.Stats().MemoryWords, plain.Stats().MemoryWords)
	}
	for _, h := range trace(t, rs, 1500, 91) {
		if pruned.Classify(h) != plain.Classify(h) {
			t.Fatalf("pruning changed classification for %v", h)
		}
	}
}

func TestRandomRuleSetsProperty(t *testing.T) {
	// Unstructured random rule sets across many seeds: serialized and
	// native lookups must both agree with the oracle.
	for seed := int64(0); seed < 8; seed++ {
		rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Random, Size: 60, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(rs, Config{Binth: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 300; i++ {
			h := pktgen.RandomHeader(rng)
			want := rs.Match(h)
			if got := tree.Classify(h); got != want {
				t.Fatalf("seed %d: native %d, oracle %d for %v", seed, got, want, h)
			}
		}
		if err := tree.Verify(trace(t, rs, 300, seed+200)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
