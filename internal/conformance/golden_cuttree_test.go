package conformance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/hicuts"
	"repro/internal/hypercuts"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// cutTreeGolden is one pinned cutting tree: its build stats, its image
// words per channel and a digest of the access programs of a fixed trace.
type cutTreeGolden struct {
	set string
	// nodes, leaves, maxDepth, maxLeaf, worstCase, memWords, multiDim
	stats   [7]int
	chWords [memlayout.NumChannels]int
	progs   string
}

// programDigest hashes every field of the access programs of hs: the
// steps (compute, channel, address, burst length), the compute tail and
// the verdict.
func programDigest(prog func(rules.Header) nptrace.Program, hs []rules.Header) string {
	h := sha256.New()
	var b []byte
	for _, hd := range hs {
		p := prog(hd)
		b = b[:0]
		for _, s := range p.Steps {
			b = binary.LittleEndian.AppendUint32(b, s.Compute)
			b = append(b, s.Channel)
			b = binary.LittleEndian.AppendUint32(b, s.Addr)
			b = binary.LittleEndian.AppendUint16(b, s.Words)
		}
		b = binary.LittleEndian.AppendUint32(b, p.FinalCompute)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(p.Result)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCutTrees pins HiCuts and HyperCuts node for node on the seven
// paper sets at the paper's channel headroom: every build statistic, the
// image size per channel and the access program of every header of a
// fixed 2 000-header trace. A change to the cut choice, the aggregation
// key, the leaf condition or the layout moves at least one of them.
func TestGoldenCutTrees(t *testing.T) {
	hi := map[string]cutTreeGolden{}
	for _, g := range goldenHiCuts {
		hi[g.set] = g
	}
	hyper := map[string]cutTreeGolden{}
	for _, g := range goldenHyperCuts {
		hyper[g.set] = g
	}
	for _, set := range rulegen.StandardNames() {
		rs, err := rulegen.Standard(set)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: 2000, Seed: 46, MatchFraction: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		hc, err := hicuts.New(rs, hicuts.Config{Headroom: memlayout.PaperHeadroom})
		if err != nil {
			t.Fatalf("%s hicuts: %v", set, err)
		}
		s := hc.Stats()
		checkCutTree(t, "hicuts", hi[set], cutTreeGolden{set: set,
			stats:   [7]int{s.Nodes, s.Leaves, s.MaxDepth, s.MaxLeafRules, s.WorstCaseAccesses, s.MemoryWords, 0},
			chWords: hc.Image().ChannelWords(),
			progs:   programDigest(hc.Program, tr.Headers)})
		yc, err := hypercuts.New(rs, hypercuts.Config{Headroom: memlayout.PaperHeadroom})
		if err != nil {
			t.Fatalf("%s hypercuts: %v", set, err)
		}
		y := yc.Stats()
		checkCutTree(t, "hypercuts", hyper[set], cutTreeGolden{set: set,
			stats:   [7]int{y.Nodes, y.Leaves, y.MaxDepth, y.MaxLeafRules, y.WorstCaseAccesses, y.MemoryWords, y.MultiDimNodes},
			chWords: yc.Image().ChannelWords(),
			progs:   programDigest(yc.Program, tr.Headers)})
	}
}

// String renders g as the table literal that pins it.
func (g cutTreeGolden) String() string {
	return fmt.Sprintf("{%q, %#v, %#v, %q},", g.set, g.stats, g.chWords, g.progs)
}

func checkCutTree(t *testing.T, algo string, want, got cutTreeGolden) {
	t.Helper()
	if got != want {
		t.Errorf("%s %s:\n got %v\nwant %v", algo, got.set, got, want)
	}
}

var goldenHiCuts = []cutTreeGolden{
	{"FW01", [7]int{707, 512, 11, 8, 32, 6873, 0}, [4]int{9, 2264, 1931, 2669}, "e48209b4d881694c515a2ba927744e555e43a560aca445c1df728f2a5388470b"},
	{"FW02", [7]int{2257, 1681, 15, 8, 41, 20861, 0}, [4]int{97, 10414, 7529, 2821}, "79f035f1151b59f5c12f726443c7be6c6a15ea8b5563b1768606d2e1938da58c"},
	{"FW03", [7]int{8895, 7050, 18, 8, 45, 81883, 0}, [4]int{830, 47987, 25069, 7997}, "d3e99bb3a8fa5ccc28201b870ba61ccdbce01f85c2ff5950c0bf68090d33a1c9"},
	{"CR01", [7]int{1198, 861, 12, 8, 34, 13730, 0}, [4]int{248, 7178, 2820, 3484}, "e53ec6cd95acbff07d5704d708e48c43a3adc0d130f27c62db1deb51e59f7318"},
	{"CR02", [7]int{4031, 2928, 12, 8, 35, 42143, 0}, [4]int{408, 16852, 12133, 12750}, "beb038268a255c89477927e2e9cac1aaa9cf1f7f0eeca9458a4582fb2ac625fe"},
	{"CR03", [7]int{8708, 6506, 13, 8, 36, 88736, 0}, [4]int{327, 29558, 45304, 13547}, "9f54287ae8b7b983030c16d27b36241184530277188f3654c2642aa456ea0ab7"},
	{"CR04", [7]int{7614, 5680, 12, 8, 34, 81048, 0}, [4]int{344, 28020, 28681, 24003}, "bbf6e37170e8a094fd9fdafee7fcf3402741559dc74c79a241e298531464eb03"},
}

var goldenHyperCuts = []cutTreeGolden{
	{"FW01", [7]int{964, 761, 11, 8, 32, 9354, 157}, [4]int{9, 3052, 2724, 3569}, "8a9d7fe82eb3243c1800ac72bf9ac084dea281f8f550188f17a5aa311d418a48"},
	{"FW02", [7]int{3320, 2626, 14, 8, 38, 30492, 568}, [4]int{209, 13895, 11489, 4899}, "1ca95ff8680f662788836c0374b04f10c5af59a354f68530f47e026580564b4e"},
	{"FW03", [7]int{11231, 9154, 15, 8, 39, 105411, 1253}, [4]int{265, 35041, 38009, 32096}, "423a7aec2dfd35c250c7d468602dff14fbd9b6bf78f31df8c9a469fbfd494d0a"},
	{"CR01", [7]int{1348, 1078, 9, 8, 28, 15796, 163}, [4]int{129, 6217, 5046, 4404}, "e61db93bce65a7d43b97e49939344684abcd1c1d33559cb3af0d29c7d775e584"},
	{"CR02", [7]int{3639, 2888, 10, 8, 30, 40475, 402}, [4]int{257, 13065, 19318, 7835}, "f75efb6f5003327951c2f80b19d8fb15f8c051d1d40f39d3e5f96ac63bb8e1c7"},
	{"CR03", [7]int{7629, 6097, 10, 8, 31, 81405, 526}, [4]int{257, 23193, 42108, 15847}, "f712109167919fe2c836ab4b5e53c76e165f8abcfcdfa7d6608a38c15dd2ef56"},
	{"CR04", [7]int{6336, 5032, 10, 8, 31, 73106, 459}, [4]int{257, 23674, 31863, 17312}, "c2b31cbd07f2c1a8cff08e3dfee8f2edd90ee1b03b1e69ac6fd7c8960c6b6bb8"},
}
