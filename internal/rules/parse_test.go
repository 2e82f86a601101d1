package rules

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

const sampleRules = `# a comment
@10.0.0.0/8	192.168.1.0/24	0 : 65535	80 : 80	0x06/0xFF	deny

@0.0.0.0/0	0.0.0.0/0	0 : 65535	0 : 65535	0x00/0x00	permit
`

func TestParse(t *testing.T) {
	rs, err := Parse("sample", strings.NewReader(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("parsed %d rules, want 2", rs.Len())
	}
	r0 := rs.Rules[0]
	if r0.SrcIP != (Prefix{0x0A000000, 8}) {
		t.Errorf("rule 0 srcIP = %v", r0.SrcIP)
	}
	if r0.DstIP != (Prefix{0xC0A80100, 24}) {
		t.Errorf("rule 0 dstIP = %v", r0.DstIP)
	}
	if r0.DstPort != (PortRange{80, 80}) {
		t.Errorf("rule 0 dstPort = %v", r0.DstPort)
	}
	if r0.Proto != (ProtoMatch{Value: 6}) {
		t.Errorf("rule 0 proto = %v", r0.Proto)
	}
	if r0.Action != ActionDeny {
		t.Errorf("rule 0 action = %v", r0.Action)
	}
	r1 := rs.Rules[1]
	if !r1.SrcIP.IsWildcard() || !r1.Proto.Wildcard || r1.Action != ActionPermit {
		t.Errorf("rule 1 parsed wrong: %+v", r1)
	}
}

func TestParseDefaultsToPermit(t *testing.T) {
	r, err := ParseRule("@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x11/0xFF")
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ActionPermit {
		t.Errorf("action = %v, want permit", r.Action)
	}
	if r.Proto != (ProtoMatch{Value: ProtoUDP}) {
		t.Errorf("proto = %v", r.Proto)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF",        // no '@'
		"@10.0.0.0/33 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF",      // prefix len
		"@10.0.0.0/8 0.0.0.0/0 65535 : 0 0 : 65535 0x06/0xFF",       // inverted range
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0x0F",       // bad mask
		"@10.0.0.0/8 0.0.0.0/0 0 - 65535 0 : 65535 0x06/0xFF",       // bad separator
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF flood", // bad action
		"@10.0.0.0/8 0.0.0.0/0 0 : 65535 0x06/0xFF",                 // too few fields
	}
	for _, line := range bad {
		if _, err := ParseRule(line); err == nil {
			t.Errorf("ParseRule(%q) should fail", line)
		}
	}
}

func TestParseErrorsIncludeLineNumber(t *testing.T) {
	_, err := Parse("x", strings.NewReader("@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 0x00/0x00\nnot-a-rule\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name line 2, got %v", err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rulesIn := make([]Rule, 50)
	for i := range rulesIn {
		lo := uint16(rng.Intn(60000))
		rulesIn[i] = Rule{
			SrcIP:   Prefix{rng.Uint32(), uint8(rng.Intn(33))},
			DstIP:   Prefix{rng.Uint32(), uint8(rng.Intn(33))},
			SrcPort: PortRange{lo, lo + uint16(rng.Intn(5000))},
			DstPort: FullPortRange,
			Proto:   ProtoMatch{Wildcard: rng.Intn(2) == 0, Value: uint8(rng.Intn(256))},
			Action:  Action(rng.Intn(6)),
		}
		// Normalize: a prefix's host bits are not significant; Parse
		// returns the masked form, so mask here for exact equality.
		rulesIn[i].SrcIP.Addr &= maskOfLen(rulesIn[i].SrcIP.Len)
		rulesIn[i].DstIP.Addr &= maskOfLen(rulesIn[i].DstIP.Len)
		// A wildcard proto's value is not significant either.
		if rulesIn[i].Proto.Wildcard {
			rulesIn[i].Proto.Value = 0
		}
	}
	in := NewRuleSet("rt", rulesIn)
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Parse("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Rules, out.Rules) {
		for i := range in.Rules {
			if in.Rules[i] != out.Rules[i] {
				t.Fatalf("rule %d differs:\n in: %+v\nout: %+v", i, in.Rules[i], out.Rules[i])
			}
		}
		t.Fatal("rule sets differ")
	}
}

func TestComputeStats(t *testing.T) {
	rs := NewRuleSet("st", []Rule{
		{SrcIP: Prefix{0x0A000000, 8}, SrcPort: FullPortRange, DstPort: PortRange{80, 80}, Proto: ProtoMatch{Value: ProtoTCP}},
		{SrcIP: Prefix{0x0A000000, 8}, SrcPort: FullPortRange, DstPort: PortRange{443, 443}, Proto: ProtoMatch{Value: ProtoTCP}},
		{SrcPort: FullPortRange, DstPort: FullPortRange, Proto: AnyProto},
	})
	st := ComputeStats(rs)
	if st.Rules != 3 {
		t.Errorf("Rules = %d", st.Rules)
	}
	// srcIP: two distinct spans (10/8 and wildcard); one of three wildcard.
	if st.DistinctSpans[DimSrcIP] != 2 {
		t.Errorf("srcIP distinct = %d, want 2", st.DistinctSpans[DimSrcIP])
	}
	if got := st.WildcardFrac[DimSrcIP]; got < 0.33 || got > 0.34 {
		t.Errorf("srcIP wildcard frac = %v", got)
	}
	// Rule 2 (full wildcard) overlaps rules 0 and 1; rules 0 and 1 overlap
	// everywhere except dst port, so they do NOT overlap. Total pairs = 2.
	if st.OverlapPairs != 2 {
		t.Errorf("OverlapPairs = %d, want 2", st.OverlapPairs)
	}
	if st.PrefixLenHist[0][8] != 2 || st.PrefixLenHist[0][0] != 1 {
		t.Errorf("prefix histogram wrong: %v", st.PrefixLenHist[0])
	}
	if !strings.Contains(st.String(), "3 rules") {
		t.Errorf("String() = %q", st.String())
	}
}
