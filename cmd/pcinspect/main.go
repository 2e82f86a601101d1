// Command pcinspect builds a classifier over a rule set and dumps its
// structural anatomy: tree shape, per-level node counts, per-channel SRAM
// words, worst-case access bound, and rule-set statistics. With -save it
// writes the serialized SRAM image to a file (the artifact a control plane
// would load into the chips), which LoadImage can read back.
//
// Usage:
//
//	pcinspect -ruleset CR04 -algo expcuts
//	pcinspect -ruleset FW03 -algo hicuts -save fw03.img
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/expcuts"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/memlayout"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

func main() {
	var (
		standard = flag.String("ruleset", "CR04", "standard set name (FW01..CR04)")
		file     = flag.String("rules", "", "rule set file instead of -ruleset")
		algo     = flag.String("algo", "expcuts", "expcuts, hicuts, hypercuts, hsm, rfc")
		save     = flag.String("save", "", "write the serialized SRAM image to this file")
	)
	flag.Parse()

	rs, err := loadRules(*file, *standard)
	if err != nil {
		fatal(err)
	}
	st := rules.ComputeStats(rs)
	fmt.Print(st)
	fmt.Println()

	var image *memlayout.Image
	switch *algo {
	case "expcuts":
		tree, err := expcuts.New(rs, expcuts.Config{})
		if err != nil {
			fatal(err)
		}
		s := tree.Stats()
		fmt.Printf("ExpCuts: depth %d (explicit), %d nodes, worst case %d accesses\n",
			s.Depth, s.Nodes, s.WorstCaseAccesses)
		fmt.Printf("  aggregated %d words, full %d words (ratio %.1f%%), avg unique children %.2f\n",
			s.MemoryWordsAggregated, s.MemoryWordsFull,
			float64(s.MemoryWordsAggregated)*100/float64(s.MemoryWordsFull), s.AvgUniqueChildren)
		fmt.Printf("  native arena %d B (64-byte node lines, one CPA ref per run), image %d B\n",
			tree.ArenaBytes(), tree.MemoryBytes())
		fmt.Println("  nodes per level:")
		for lvl, n := range s.NodesPerLevel {
			fmt.Printf("    level %2d: %d\n", lvl, n)
		}
		image = tree.Image()
	case "hicuts":
		tree, err := hicuts.New(rs, hicuts.Config{})
		if err != nil {
			fatal(err)
		}
		s := tree.Stats()
		fmt.Printf("HiCuts: %d nodes (%d leaves), depth %d, max leaf %d rules, worst case %d accesses, %d words\n",
			s.Nodes, s.Leaves, s.MaxDepth, s.MaxLeafRules, s.WorstCaseAccesses, s.MemoryWords)
		image = tree.Image()
	case "hypercuts":
		tree, err := hypercuts.New(rs, hypercuts.Config{})
		if err != nil {
			fatal(err)
		}
		s := tree.Stats()
		fmt.Printf("HyperCuts: %d nodes (%d leaves, %d multi-dim), depth %d, max leaf %d rules, worst case %d accesses, %d words\n",
			s.Nodes, s.Leaves, s.MultiDimNodes, s.MaxDepth, s.MaxLeafRules, s.WorstCaseAccesses, s.MemoryWords)
		image = tree.Image()
	case "hsm":
		cl, err := hsm.New(rs, hsm.Config{})
		if err != nil {
			fatal(err)
		}
		s := cl.Stats()
		fmt.Printf("HSM: worst case %d accesses, %d words\n", s.WorstCaseAccesses, s.MemoryWords)
		for d := 0; d < rules.NumDims; d++ {
			fmt.Printf("  %-8s %5d segments, %5d classes\n", rules.Dim(d), s.Segments[d], s.Classes[d])
		}
		fmt.Printf("  IP classes %d, port classes %d, combined classes %d\n",
			s.IPClasses, s.PortClasses, s.CombinedClasses)
		image = cl.Image()
	case "rfc":
		cl, err := rfc.New(rs, rfc.Config{})
		if err != nil {
			fatal(err)
		}
		s := cl.Stats()
		fmt.Printf("RFC: %d fixed accesses, %d words\n", s.WorstCaseAccesses, s.MemoryWords)
		fmt.Printf("  phase-0 classes per chunk: %v\n", s.Phase0Classes)
		image = cl.Image()
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	words := image.ChannelWords()
	fmt.Println("SRAM channel occupancy:")
	for c, w := range words {
		fmt.Printf("  SRAM#%d: %8d words (%6.2f MB of %d MB)\n",
			c, w, float64(w*4)/1e6, memlayout.ChannelBytes>>20)
	}
	if !image.FitsHardware() {
		fmt.Println("  WARNING: image exceeds a channel's 8 MB SRAM chip")
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := image.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("image written to %s (%d bytes)\n", *save, image.TotalBytes())
	}
}

func loadRules(file, standard string) (*rules.RuleSet, error) {
	if file == "" {
		return rulegen.Standard(standard)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rules.Parse(file, f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcinspect:", err)
	os.Exit(1)
}
