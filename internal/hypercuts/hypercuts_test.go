package hypercuts

import (
	"testing"

	"repro/internal/hicuts"
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

func TestMultiDimensionalCutsHappen(t *testing.T) {
	// Core-router sets have two address dimensions with rich projections;
	// HyperCuts must actually use its defining feature on them.
	rs := buildSet(t, rulegen.CoreRouter, 400, 305)
	tree, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Stats().MultiDimNodes == 0 {
		t.Error("no multi-dimensional nodes built; HyperCuts degenerated to HiCuts")
	}
}

func TestShallowerThanHiCuts(t *testing.T) {
	// Cutting two dimensions at once flattens the tree relative to
	// HiCuts on the same rules (the HyperCuts paper's headline).
	rs := buildSet(t, rulegen.CoreRouter, 400, 306)
	hyper, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := hicuts.New(rs, hicuts.Config{PruneCovered: true})
	if err != nil {
		t.Fatal(err)
	}
	if hyper.Stats().MaxDepth > hi.Stats().MaxDepth {
		t.Errorf("HyperCuts depth %d exceeds HiCuts depth %d",
			hyper.Stats().MaxDepth, hi.Stats().MaxDepth)
	}
}

func TestConfigValidation(t *testing.T) {
	rs := buildSet(t, rulegen.Firewall, 20, 311)
	for i, cfg := range []Config{
		{Binth: -1},
		{SpFac: 0.1},
		{MaxCells: 100}, // not a power of two
		{Channels: 6},
	} {
		if _, err := New(rs, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestDegenerateSets(t *testing.T) {
	// Inseparable duplicates and single rules must terminate.
	r := rules.Rule{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto}
	rs := rules.NewRuleSet("dup", []rules.Rule{r, r, r})
	tree, err := New(rs, Config{Binth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Classify(rules.Header{}); got != 0 {
		t.Errorf("Classify = %d, want 0", got)
	}
}
