package rules

import (
	"fmt"
	"strings"
)

// Stats summarizes the statistical structure of a rule set — the properties
// (wildcard density, prefix-length distribution, overlap) that drive
// decision-tree size and space-mapping table size. The synthetic generators
// are tuned against these numbers, and tests assert that FW-style and
// CR-style sets keep their characteristic shapes.
type Stats struct {
	Name  string
	Rules int
	// WildcardFrac is, per dimension, the fraction of rules that are a
	// full wildcard in that dimension.
	WildcardFrac [NumDims]float64
	// DistinctSpans is, per dimension, the number of distinct projected
	// spans among the rules.
	DistinctSpans [NumDims]int
	// PrefixLenHist counts source (index 0) and destination (index 1)
	// prefix lengths 0..32.
	PrefixLenHist [2][33]int
	// OverlapPairs counts rule pairs whose boxes intersect; a measure of
	// how tangled the set is (overlaps force decision trees to replicate
	// rules across children).
	OverlapPairs int
	// AvgOverlapDegree is OverlapPairs normalized by the number of rules.
	AvgOverlapDegree float64
}

// ComputeStats analyzes the rule set. It is O(n²) in the number of rules for
// the overlap count, which is fine at the paper's scale (≤ 1945 rules).
func ComputeStats(s *RuleSet) Stats {
	st := Stats{Name: s.Name, Rules: len(s.Rules)}
	for d := 0; d < NumDims; d++ {
		seen := make(map[Span]bool)
		wild := 0
		for i := range s.Rules {
			sp := s.Rules[i].Span(Dim(d))
			seen[sp] = true
			if sp.Lo == 0 && sp.Hi == Dim(d).Max() {
				wild++
			}
		}
		st.DistinctSpans[d] = len(seen)
		if len(s.Rules) > 0 {
			st.WildcardFrac[d] = float64(wild) / float64(len(s.Rules))
		}
	}
	for i := range s.Rules {
		st.PrefixLenHist[0][s.Rules[i].SrcIP.Len]++
		st.PrefixLenHist[1][s.Rules[i].DstIP.Len]++
	}
	boxes := s.Boxes()
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				st.OverlapPairs++
			}
		}
	}
	if len(s.Rules) > 0 {
		st.AvgOverlapDegree = float64(st.OverlapPairs) / float64(len(s.Rules))
	}
	return st
}

// String renders a compact multi-line report of the statistics.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rules, %d overlapping pairs (%.1f per rule)\n",
		st.Name, st.Rules, st.OverlapPairs, st.AvgOverlapDegree)
	for d := 0; d < NumDims; d++ {
		fmt.Fprintf(&b, "  %-8s wildcard %5.1f%%  distinct spans %d\n",
			Dim(d), st.WildcardFrac[d]*100, st.DistinctSpans[d])
	}
	return b.String()
}
