package rulegen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rules"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Kind: Firewall, Size: 100, Seed: 7}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rules, b.Rules) {
		t.Fatal("same config must generate identical rules")
	}
	c, err := Generate(Config{Kind: Firewall, Size: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rules, c.Rules) {
		t.Fatal("different seeds should generate different rules")
	}
}

func TestGenerateExactSize(t *testing.T) {
	for _, kind := range []Kind{Firewall, CoreRouter, Random} {
		for _, size := range []int{2, 17, 100, 500} {
			s, err := Generate(Config{Kind: kind, Size: size, Seed: 1})
			if err != nil {
				t.Fatalf("%v/%d: %v", kind, size, err)
			}
			if s.Len() != size {
				t.Errorf("%v/%d: generated %d rules", kind, size, s.Len())
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%v/%d: invalid: %v", kind, size, err)
			}
		}
	}
}

func TestGenerateRejectsBadSize(t *testing.T) {
	if _, err := Generate(Config{Kind: Firewall, Size: 0, Seed: 1}); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := Generate(Config{Kind: Firewall, Size: -5, Seed: 1}); err == nil {
		t.Error("negative size should fail")
	}
}

func TestFirewallShape(t *testing.T) {
	s, err := Generate(Config{Kind: Firewall, Size: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := rules.ComputeStats(s)
	// Firewalls wildcard the source address heavily (inbound service rules).
	if st.WildcardFrac[rules.DimSrcIP] < 0.3 {
		t.Errorf("firewall srcIP wildcard fraction = %.2f, want >= 0.3", st.WildcardFrac[rules.DimSrcIP])
	}
	// Source ports are almost always wildcarded.
	if st.WildcardFrac[rules.DimSrcPort] < 0.9 {
		t.Errorf("firewall srcPort wildcard fraction = %.2f, want >= 0.9", st.WildcardFrac[rules.DimSrcPort])
	}
	// The last rule must be the default deny.
	last := s.Rules[s.Len()-1]
	if !last.SrcIP.IsWildcard() || !last.DstIP.IsWildcard() || last.Action != rules.ActionDeny {
		t.Errorf("last firewall rule should be default deny, got %v", &last)
	}
	// Every header must therefore match something.
	if s.Match(rules.Header{SrcIP: 12345, DstIP: 99999, SrcPort: 1, DstPort: 2, Proto: 200}) < 0 {
		t.Error("default deny should make the policy total")
	}
}

func TestCoreRouterShape(t *testing.T) {
	s, err := Generate(Config{Kind: CoreRouter, Size: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := rules.ComputeStats(s)
	// Core-router ACLs are prefix-pair dominated: most rules carry real
	// prefixes on both addresses and wildcard ports.
	if st.WildcardFrac[rules.DimSrcIP] > 0.3 {
		t.Errorf("CR srcIP wildcard fraction = %.2f, want <= 0.3", st.WildcardFrac[rules.DimSrcIP])
	}
	if st.WildcardFrac[rules.DimDstPort] < 0.1 {
		t.Errorf("CR dstPort wildcard fraction = %.2f, want >= 0.1", st.WildcardFrac[rules.DimDstPort])
	}
	// Source ports stay wildcarded; destination ports split between
	// service clusters and pair-wide catch-alls.
	if st.WildcardFrac[rules.DimSrcPort] < 0.95 {
		t.Errorf("CR srcPort wildcard fraction = %.2f, want >= 0.95", st.WildcardFrac[rules.DimSrcPort])
	}
	// Prefix lengths should be concentrated in 12..24.
	mid := 0
	for l := 12; l <= 24; l++ {
		mid += st.PrefixLenHist[0][l]
	}
	if frac := float64(mid) / float64(s.Len()); frac < 0.5 {
		t.Errorf("CR prefix lengths 12–24 cover only %.0f%% of rules", frac*100)
	}
	// No duplicate rules.
	seen := make(map[rules.Rule]bool)
	for _, r := range s.Rules {
		if seen[r] {
			t.Fatalf("duplicate rule generated: %v", &r)
		}
		seen[r] = true
	}
}

func TestStandardSets(t *testing.T) {
	var sets []*rules.RuleSet
	for _, name := range StandardNames() {
		s, err := Standard(name)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	wantNames := []string{"FW01", "FW02", "FW03", "CR01", "CR02", "CR03", "CR04"}
	wantSizes := []int{85, 160, 310, 460, 920, 1530, 1945}
	if len(sets) != len(wantNames) {
		t.Fatalf("got %d sets", len(sets))
	}
	for i, s := range sets {
		if s.Name != wantNames[i] {
			t.Errorf("set %d name = %q, want %q", i, s.Name, wantNames[i])
		}
		if s.Len() != wantSizes[i] {
			t.Errorf("%s has %d rules, want %d", s.Name, s.Len(), wantSizes[i])
		}
	}
	// Sizes must be strictly increasing (the figures rely on it).
	for i := 1; i < len(sets); i++ {
		if sets[i].Len() <= sets[i-1].Len() {
			t.Errorf("sizes not increasing at %s", sets[i].Name)
		}
	}
}

func TestStandardByName(t *testing.T) {
	s, err := Standard("CR04")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1945 {
		t.Errorf("CR04 has %d rules, want 1945 (the paper's largest set)", s.Len())
	}
	if _, err := Standard("XX99"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestStandardSetsRoundTripThroughParser(t *testing.T) {
	// Generated sets must survive Write/Parse — they are what cmd/pcgen
	// writes to disk.
	s, err := Standard("FW01")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rules.Parse("FW01", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Rules, back.Rules) {
		t.Fatal("standard set does not round-trip through the text format")
	}
}

func TestPrefixPoolMasksHostBits(t *testing.T) {
	s, err := Generate(Config{Kind: CoreRouter, Size: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range s.Rules {
		for _, p := range []rules.Prefix{r.SrcIP, r.DstIP} {
			sp := p.Span()
			if p.Len > 0 && sp.Lo != p.Addr {
				t.Fatalf("rule %d: prefix %v has host bits set", i, p)
			}
		}
	}
}
