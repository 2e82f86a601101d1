package expcuts_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/expcuts"
	"repro/internal/faultinject"
	"repro/internal/linear"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// TestArenaDifferential is the bridge between the two descriptions of an
// ExpCuts lookup: the compressed native arena, and the paper's full-depth
// layout (builder graph, serialized image, access programs). For every
// header of a rule-directed trace the arena walk, the graph walk and the
// image Lookup must agree with each other and with linear search — across
// strides, HABS widths, every sharing mode (each builds by cell class but
// ShareNone, which builds every cell), and rule families from the realistic
// to the adversarial.
func TestArenaDifferential(t *testing.T) {
	generated := func(kind rulegen.Kind, size int) *rules.RuleSet {
		rs, err := rulegen.Generate(rulegen.Config{Kind: kind, Size: size, Seed: 1201})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	// Exact-match rules keep ShareNone (no node sharing at all) buildable;
	// every family with a wildcard field exhausts its node cap there.
	points := make([]rules.Rule, 12)
	for i := range points {
		points[i] = rules.Rule{
			SrcIP:   rules.Prefix{Addr: 0x0A000000 + uint32(i)*0x01010101, Len: 32},
			DstIP:   rules.Prefix{Addr: 0xC0A80000 + uint32(i)*257, Len: 32},
			SrcPort: rules.PortRange{Lo: uint16(1000 + i), Hi: uint16(1000 + i)},
			DstPort: rules.PortRange{Lo: 80, Hi: 80},
			Proto:   rules.ProtoMatch{Value: rules.ProtoTCP},
		}
	}
	families := []*rules.RuleSet{
		generated(rulegen.Firewall, 40),
		generated(rulegen.CoreRouter, 60),
		generated(rulegen.Random, 20),
		faultinject.OverlapGrid("overlap-grid", 4),
		faultinject.WildcardStorm("wildcard-storm", 12, 1202),
		rules.NewRuleSet("points", points),
	}

	type modeStride struct {
		sharing expcuts.SharingMode
		w       uint
	}
	built := map[modeStride]int{}
	for _, rs := range families {
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: 300, Seed: 1203, MatchFraction: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(tr.Headers))
		linear.New(rs).ClassifyBatch(tr.Headers, want)
		for _, w := range []uint{1, 2, 4, 8} {
			maxV := min(w, bitstring.MaxV)
			for _, v := range []uint{1, 4, maxV} {
				if v > maxV || (v == 4 && maxV == 4) {
					continue // rejected by the config, or a repeat of maxV
				}
				for _, sharing := range []expcuts.SharingMode{expcuts.ShareGlobal, expcuts.ShareSiblings, expcuts.ShareNone} {
					name := fmt.Sprintf("%s w=%d v=%d %v", rs.Name, w, v, sharing)
					cfg := expcuts.Config{StrideW: w, HabsV: v, Sharing: sharing}
					if sharing != expcuts.ShareGlobal {
						cfg.MaxNodes = 1 << 13 // fail fast where sharing less is infeasible
					}
					tree, err := expcuts.New(rs, cfg)
					if err != nil {
						if cfg.MaxNodes != 0 && strings.Contains(err.Error(), "node budget") {
							continue
						}
						t.Fatalf("%s: %v", name, err)
					}
					built[modeStride{sharing, w}]++
					for i, h := range tr.Headers {
						if got := tree.Classify(h); got != want[i] {
							t.Fatalf("%s: Classify(%v) = %d, linear = %d", name, h, got, want[i])
						}
					}
					if err := expcuts.CheckArena(tree, tr.Headers); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
	for _, sharing := range []expcuts.SharingMode{expcuts.ShareGlobal, expcuts.ShareSiblings, expcuts.ShareNone} {
		total := 0
		for _, w := range []uint{1, 2, 4, 8} {
			if built[modeStride{sharing, w}] == 0 {
				t.Errorf("sharing %v: nothing built under the node cap at w=%d", sharing, w)
			}
			total += built[modeStride{sharing, w}]
		}
		if total < 8 {
			t.Errorf("sharing %v: only %d configurations built under the node cap", sharing, total)
		}
	}
}

// fuzzRuleBytes is one encoded rule: two prefixes (address + length), two
// port ranges, protocol value and a flags byte (bit 0: protocol wildcard).
const fuzzRuleBytes = 20

// decodeFuzzRules turns fuzz bytes into at most 16 valid rules; short tails
// are dropped and inverted port ranges swapped, so every input is a rule set.
func decodeFuzzRules(data []byte) []rules.Rule {
	var rs []rules.Rule
	for ; len(data) >= fuzzRuleBytes && len(rs) < 16; data = data[fuzzRuleBytes:] {
		port := func(b []byte) rules.PortRange {
			lo, hi := binary.BigEndian.Uint16(b), binary.BigEndian.Uint16(b[2:])
			if lo > hi {
				lo, hi = hi, lo
			}
			return rules.PortRange{Lo: lo, Hi: hi}
		}
		rs = append(rs, rules.Rule{
			SrcIP:   rules.Prefix{Addr: binary.BigEndian.Uint32(data), Len: data[4] % 33},
			DstIP:   rules.Prefix{Addr: binary.BigEndian.Uint32(data[5:]), Len: data[9] % 33},
			SrcPort: port(data[10:]),
			DstPort: port(data[14:]),
			Proto:   rules.ProtoMatch{Wildcard: data[19]&1 != 0, Value: data[18]},
		})
	}
	return rs
}

func fuzzHeader(b []byte) rules.Header {
	return rules.Header{
		SrcIP: binary.BigEndian.Uint32(b), DstIP: binary.BigEndian.Uint32(b[4:]),
		SrcPort: binary.BigEndian.Uint16(b[8:]), DstPort: binary.BigEndian.Uint16(b[10:]), Proto: b[12],
	}
}

// FuzzExpCutsEquivalence is the classifier-equivalence target for ExpCuts: a
// random rule set of at most 16 rules and a header must classify the same
// through every native walk — Classify, ClassifyBatch, ClassifyBatchPipelined
// at group 1, 3 and 64 with affine on and off — as through linear search, in
// every sharing mode, and checkArena must hold for each build. Besides the
// fuzzed header, each rule's low and high corner is probed, so rule
// boundaries are hit whatever the header bytes are. shape picks the stride
// (bits 0-1) and the HABS width (bits 2-4, clamped); bit 5 is unused.
func FuzzExpCutsEquivalence(f *testing.F) {
	rule := func(src uint32, sl uint8, dst uint32, dl uint8, sp, dp [2]uint16, proto, flags uint8) []byte {
		b := make([]byte, fuzzRuleBytes)
		binary.BigEndian.PutUint32(b, src)
		b[4] = sl
		binary.BigEndian.PutUint32(b[5:], dst)
		b[9] = dl
		binary.BigEndian.PutUint16(b[10:], sp[0])
		binary.BigEndian.PutUint16(b[12:], sp[1])
		binary.BigEndian.PutUint16(b[14:], dp[0])
		binary.BigEndian.PutUint16(b[16:], dp[1])
		b[18], b[19] = proto, flags
		return b
	}
	anyPort := [2]uint16{0, 65535}
	tcpOnly := rule(0, 0, 0, 0, anyPort, anyPort, rules.ProtoTCP, 0)
	wildcard := rule(0, 0, 0, 0, anyPort, anyPort, 0, 1)
	host := rule(0x0A010203, 32, 0x0B040506, 32, [2]uint16{1000, 1000}, [2]uint16{80, 80}, rules.ProtoTCP, 0)
	web := rule(0x0A000000, 8, 0xC0A80000, 16, anyPort, [2]uint16{80, 443}, rules.ProtoTCP, 0)
	dns := rule(0, 0, 0x08080808, 32, [2]uint16{1024, 65535}, [2]uint16{53, 53}, rules.ProtoUDP, 0)
	hdr := []byte{0x0A, 1, 2, 3, 0x0B, 4, 5, 6, 0x03, 0xE8, 0, 80, rules.ProtoTCP}
	cat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	// One seed per shape compression produces: a chain down to the protocol
	// byte, a leaf root, no elision at all, shadowed rules behind a
	// wildcard, and a mixed set; strides 8, 4, 2 and 1.
	f.Add(uint8(3), tcpOnly, hdr)
	f.Add(uint8(3), wildcard, hdr)
	f.Add(uint8(2|4<<2), host, hdr)
	f.Add(uint8(1|2<<2), cat(web, dns, wildcard, host), hdr)
	f.Add(uint8(0), cat(host, tcpOnly), hdr)
	f.Add(uint8(3|5<<2|1<<5), cat(web, dns, host, tcpOnly), hdr)

	f.Fuzz(func(t *testing.T, shape uint8, ruleData, hdrData []byte) {
		rs := rules.NewRuleSet("fuzz", decodeFuzzRules(ruleData))
		if rs.Len() == 0 || len(hdrData) < 13 {
			t.Skip()
		}
		hs := []rules.Header{fuzzHeader(hdrData)}
		for i := range rs.Rules {
			b := rs.Rules[i].Box()
			hs = append(hs,
				rules.Header{SrcIP: b[0].Lo, DstIP: b[1].Lo, SrcPort: uint16(b[2].Lo), DstPort: uint16(b[3].Lo), Proto: uint8(b[4].Lo)},
				rules.Header{SrcIP: b[0].Hi, DstIP: b[1].Hi, SrcPort: uint16(b[2].Hi), DstPort: uint16(b[3].Hi), Proto: uint8(b[4].Hi)})
		}
		want := make([]int, len(hs))
		linear.New(rs).ClassifyBatch(hs, want)

		got := make([]int, len(hs))
		for _, sharing := range []expcuts.SharingMode{expcuts.ShareGlobal, expcuts.ShareSiblings, expcuts.ShareNone} {
			cfg := expcuts.Config{StrideW: 1 << (shape & 3), Sharing: sharing, MaxNodes: 1 << 15}
			cfg.HabsV = min(1+uint(shape>>2&7), cfg.StrideW, bitstring.MaxV)
			if sharing == expcuts.ShareNone {
				cfg.MaxNodes = 1 << 11 // fail fast: each wildcard level multiplies the tree by 2^w
			}
			tree, err := expcuts.New(rs, cfg)
			if err != nil {
				continue // node cap: 16 overlapping rules can still be too many
			}
			check := func(walk string) {
				for i := range hs {
					if got[i] != want[i] {
						t.Fatalf("%s(%v) = %d, linear = %d (w=%d v=%d %v, rules %v)",
							walk, hs[i], got[i], want[i], cfg.StrideW, cfg.HabsV, cfg.Sharing, rs.Rules)
					}
				}
			}
			for i, h := range hs {
				got[i] = tree.Classify(h)
			}
			check("Classify")
			tree.ClassifyBatch(hs, got)
			check("ClassifyBatch")
			for _, group := range []int{1, 3, 64} {
				for _, affine := range []bool{false, true} {
					tree.ClassifyBatchPipelined(hs, got, group, affine)
					check(fmt.Sprintf("ClassifyBatchPipelined[group=%d affine=%v]", group, affine))
				}
			}
			if err := expcuts.CheckArena(tree, hs); err != nil {
				t.Fatalf("w=%d v=%d %v: %v (rules %v)", cfg.StrideW, cfg.HabsV, sharing, err, rs.Rules)
			}
		}
	})
}
