package expcuts

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buildgov"
	"repro/internal/rules"
)

// fullSignature is the memo key with every dimension's geometry: per rule
// its identity and its clip on all five dimensions, relative to the box.
// signature keeps only the cut dimension's clip; TestSignatureMatchesFullKey
// holds the two to the same equalities.
func (b *builder) fullSignature(pos uint, box rules.Box, ruleIdx []int32) []byte {
	sig := binary.AppendUvarint(nil, uint64(pos))
	for _, ri := range ruleIdx {
		sig = binary.AppendUvarint(sig, uint64(ri))
		for d := 0; d < rules.NumDims; d++ {
			clip, _ := b.boxes[ri][d].Intersect(box[d])
			sig = binary.AppendUvarint(sig, uint64(clip.Lo-box[d].Lo))
			sig = binary.AppendUvarint(sig, uint64(clip.Hi-box[d].Lo))
		}
	}
	return sig
}

// randomSmallSet draws at most 16 rules whose prefixes and ports favour
// boundaries: short and full-length prefixes, ports at 0, 1023/1024 and
// 65535, and ranges that share endpoints.
func randomSmallSet(rng *rand.Rand, name string) *rules.RuleSet {
	ports := []uint16{0, 1, 80, 1023, 1024, 8080, 65534, 65535}
	port := func() rules.PortRange {
		if rng.Intn(3) == 0 {
			return rules.FullPortRange
		}
		lo, hi := ports[rng.Intn(len(ports))], ports[rng.Intn(len(ports))]
		if rng.Intn(2) == 0 {
			hi = uint16(rng.Intn(1 << 16))
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		return rules.PortRange{Lo: lo, Hi: hi}
	}
	prefix := func() rules.Prefix {
		lens := []uint8{0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32}
		return rules.Prefix{Addr: []uint32{0, 0x0A000000, 0x0A0A0000, 0xFFFFFFFF, rng.Uint32()}[rng.Intn(5)],
			Len: lens[rng.Intn(len(lens))]}
	}
	rs := make([]rules.Rule, 1+rng.Intn(16))
	for i := range rs {
		rs[i] = rules.Rule{
			SrcIP: prefix(), DstIP: prefix(), SrcPort: port(), DstPort: port(),
			Proto: rules.ProtoMatch{Wildcard: rng.Intn(2) == 0, Value: []uint8{rules.ProtoTCP, rules.ProtoUDP}[rng.Intn(2)]},
		}
	}
	return rules.NewRuleSet(name, rs)
}

// TestSignatureMatchesFullKey checks that the short memo key is exact: over
// every memo probe of random small builds at every stride, under global and
// sibling sharing, two probes have equal short keys if and only if they
// have equal full-geometry keys — so the short key shares exactly the
// nodes the full one did.
func TestSignatureMatchesFullKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	probes := 0
	for trial := 0; trial < 24; trial++ {
		rs := randomSmallSet(rng, fmt.Sprintf("small-%d", trial))
		keys := &builder{boxes: rs.Boxes()}
		for _, w := range []uint{1, 2, 4, 8} {
			for _, sharing := range []SharingMode{ShareGlobal, ShareSiblings} {
				cfg := Config{StrideW: w, Sharing: sharing}
				if err := cfg.fillDefaults(); err != nil {
					t.Fatal(err)
				}
				// fullOf[short] and shortOf[full] are the other key of the
				// first probe seen with that key.
				fullOf, shortOf := map[string]string{}, map[string]string{}
				var bad error
				tree := &Tree{cfg: cfg, rs: rs, probe: func(pos uint, box rules.Box, ruleIdx []int32) {
					probes++
					short := string(keys.signature(pos, box, ruleIdx))
					full := string(keys.fullSignature(pos, box, ruleIdx))
					if f, ok := fullOf[short]; ok && f != full && bad == nil {
						bad = fmt.Errorf("pos %d box %v rules %v: short key equals an earlier probe's, full key does not", pos, box, ruleIdx)
					}
					if s, ok := shortOf[full]; ok && s != short && bad == nil {
						bad = fmt.Errorf("pos %d box %v rules %v: full key equals an earlier probe's, short key does not", pos, box, ruleIdx)
					}
					fullOf[short], shortOf[full] = full, short
				}}
				// Sibling sharing explodes on some sets at small strides; the
				// probes before the node budget trips are checked all the same.
				err := tree.buildGraph(buildgov.Start(context.Background(), &buildgov.Budget{MaxNodes: 1 << 12}))
				if err != nil && !errors.Is(err, buildgov.ErrBudgetExceeded) {
					t.Fatalf("%s w=%d %v: %v", rs.Name, w, sharing, err)
				}
				if bad != nil {
					t.Fatalf("%s w=%d %v: %v", rs.Name, w, sharing, bad)
				}
			}
		}
	}
	t.Logf("%d memo probes", probes)
}
