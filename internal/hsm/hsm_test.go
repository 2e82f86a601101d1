package hsm

import (
	"testing"

	"repro/internal/rulegen"
	"repro/internal/rules"
)

func TestSegmentLookup(t *testing.T) {
	rs := rules.NewRuleSet("segs", []rules.Rule{
		{SrcPort: rules.PortRange{Lo: 100, Hi: 200}, DstPort: rules.FullPortRange, Proto: rules.AnyProto},
		{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto},
	})
	c, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dt := &c.dims[rules.DimSrcPort]
	// Segments: [0,99] [100,200] [201,65535].
	if len(dt.segLo) != 3 {
		t.Fatalf("segments = %d, want 3", len(dt.segLo))
	}
	for _, tc := range []struct {
		v    uint32
		want int
	}{
		{0, 0}, {99, 0}, {100, 1}, {200, 1}, {201, 2}, {65535, 2},
	} {
		if got := dt.segment(tc.v); got != tc.want {
			t.Errorf("segment(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestStatsShape(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 300, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// IP dims should have many segments (prefix pairs), proto few.
	if st.Segments[rules.DimSrcIP] < 50 {
		t.Errorf("srcIP segments = %d, suspiciously few", st.Segments[rules.DimSrcIP])
	}
	if st.Segments[rules.DimProto] > 10 {
		t.Errorf("proto segments = %d, suspiciously many", st.Segments[rules.DimProto])
	}
	if st.MemoryWords != c.MemoryBytes()/4 {
		t.Errorf("MemoryWords %d inconsistent with MemoryBytes %d", st.MemoryWords, c.MemoryBytes())
	}
	if st.WorstCaseAccesses < 9 {
		t.Errorf("WorstCaseAccesses = %d, must include 5 class reads + 4 table reads", st.WorstCaseAccesses)
	}
}
