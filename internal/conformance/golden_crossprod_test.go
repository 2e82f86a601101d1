package conformance

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/buildgov"
	"repro/internal/hsm"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// crossProdGolden is one pinned cross-producting classifier: its build
// stats, its image words per channel, a SHA-256 of its saved image, a
// digest of the access programs of a fixed trace, and the budget errors
// of three node budgets that trip in phase 0, in the first combine table
// and in the final table.
type crossProdGolden struct {
	set     string
	stats   string
	chWords [memlayout.NumChannels]int
	image   string
	progs   string
	budgets [3]int
	trips   [3]string
}

// crossProdBuild is one algorithm's view for the golden test.
type crossProdBuild struct {
	name string
	// build returns the classifier and its rendered BuildStats, whose
	// type differs per algorithm.
	build func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) (crossProd, string, error)
	want  []crossProdGolden
}

// crossProd is what the golden test reads of a built classifier.
type crossProd interface {
	Image() *memlayout.Image
	Program(rules.Header) nptrace.Program
}

// TestGoldenCrossProduct pins HSM and RFC on the seven paper sets: every
// build statistic, the image words per channel, the image bytes, the
// access program of every header of a fixed 2 000-header trace, and where
// the build governor stops them under three node budgets. A change to the
// class sweep, a plan, the table layout or a governor charge moves at
// least one of them.
func TestGoldenCrossProduct(t *testing.T) {
	algos := []crossProdBuild{
		{"hsm", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) (crossProd, string, error) {
			c, err := hsm.NewCtx(ctx, rs, hsm.Config{}, b)
			if err != nil {
				return nil, "", err
			}
			return c, fmt.Sprintf("%+v", c.Stats()), nil
		}, goldenHSM},
		{"rfc", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) (crossProd, string, error) {
			c, err := rfc.NewCtx(ctx, rs, rfc.Config{}, b)
			if err != nil {
				return nil, "", err
			}
			return c, fmt.Sprintf("%+v", c.Stats()), nil
		}, goldenRFC},
	}
	for _, a := range algos {
		want := map[string]crossProdGolden{}
		for _, g := range a.want {
			want[g.set] = g
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
			c, stats, err := a.build(context.Background(), rs, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", a.name, set, err)
			}
			img := sha256.New()
			if err := c.Image().Save(img); err != nil {
				t.Fatal(err)
			}
			w := want[set]
			got := crossProdGolden{set: set,
				stats:   stats,
				chWords: c.Image().ChannelWords(),
				image:   hex.EncodeToString(img.Sum(nil)),
				progs:   programDigest(c.Program, tr.Headers),
				budgets: w.budgets}
			for i, max := range w.budgets {
				_, _, err := a.build(context.Background(), rs, &buildgov.Budget{MaxNodes: max})
				var be *buildgov.BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("%s %s: MaxNodes %d: got %v, want a budget trip", a.name, set, max, err)
				}
				got.trips[i] = fmt.Sprintf("%s nodes=%d heap=%d memo=%d",
					be.Limit, be.Stats.Nodes, be.Stats.HeapBytes, be.Stats.MemoEntries)
			}
			if got != w {
				t.Errorf("%s %s:\n got %v\nwant %v", a.name, set, got, w)
			}
		}
	}
}

// String renders g as the table literal that pins it.
func (g crossProdGolden) String() string {
	return fmt.Sprintf("{%q, %q, %#v, %q, %q, %#v, %#v},", g.set, g.stats, g.chWords, g.image, g.progs, g.budgets, g.trips)
}

var goldenHSM = []crossProdGolden{
	{"FW01", "{Segments:[67 113 1 47 7] Classes:[34 57 1 29 4] IPClasses:1513 PortClasses:29 CombinedClasses:899 MemoryWords:49910 WorstCaseAccesses:32}", [4]int{3744, 2164, 31, 43971}, "629e61e87869b64f00421d4669c28ea7b0d5a67189389f4d1962d83ac6981668", "1b102f35f694206cc618b3a57b46676358fa341054931aaefbba6be4c36e6a67", [3]int{117, 252, 2233}, [3]string{"nodes nodes=118 heap=3068 memo=0", "nodes nodes=253 heap=13862 memo=0", "nodes nodes=2234 heap=267336 memo=2441"}},
	{"FW02", "{Segments:[117 224 1 53 7] Classes:[59 113 1 36 4] IPClasses:4759 PortClasses:36 CombinedClasses:3217 MemoryWords:191699 WorstCaseAccesses:33}", [4]int{13116, 7115, 38, 171430}, "c5a5c98564801bacf11b3137551b550aecd920b62c56c52ce7efbb497763d196", "3f9ca5b004c773a00053ebb1142b48342afac1706c70a77a34dbf6bfa8d3b8f0", [3]int{201, 431, 6830}, [3]string{"nodes nodes=202 heap=7272 memo=0", "nodes nodes=432 heap=41140 memo=0", "nodes nodes=6831 heap=1066484 memo=8012"}},
	{"FW03", "{Segments:[239 422 1 70 7] Classes:[120 212 1 55 4] IPClasses:18356 PortClasses:55 CombinedClasses:11331 MemoryWords:1081877 WorstCaseAccesses:36}", [4]int{45816, 26284, 57, 1009720}, "6fe8ac89bff50c866bf0a3db8d120202d38b9f0977b501e2119ac1e574d26a3e", "551ab837b8439e0dd7d4adc646fac36c71a7dc65a8735770cda4a1463c8c4248", [3]int{369, 799, 24882}, [3]string{"nodes nodes=370 heap=19980 memo=0", "nodes nodes=800 heap=141666 memo=0", "nodes nodes=24883 heap=5967570 memo=29742"}},
	{"CR01", "{Segments:[164 174 1 52 5] Classes:[83 88 1 32 3] IPClasses:259 PortClasses:32 CombinedClasses:1086 MemoryWords:19674 WorstCaseAccesses:34}", [4]int{3596, 7652, 34, 8392}, "e395b051a201439d08b287662e29df9e468a1d0a6573a6add3c74b65cb8767d3", "9b5e88d3297c5257edb3d967780ef9a8a80ab709fad8602c97f4e51d1af2afce", [3]int{198, 437, 1282}, [3]string{"nodes nodes=199 heap=14527 memo=0", "nodes nodes=438 heap=58124 memo=0", "nodes nodes=1283 heap=204957 memo=1377"}},
	{"CR02", "{Segments:[318 318 1 62 5] Classes:[163 160 1 39 3] IPClasses:523 PortClasses:39 CombinedClasses:2652 MemoryWords:55880 WorstCaseAccesses:36}", [4]int{8602, 26716, 41, 20521}, "100362f3ad4854d0a45d966759df234f053e7a001dc1b521ab8c83779282c8dc", "be07dd7aaf45d0f66b0f2cb444ae841d9e0d06ca81c1c2bd9af1cd698e0d6e8c", [3]int{352, 785, 2717}, [3]string{"nodes nodes=353 heap=46243 memo=0", "nodes nodes=786 heap=196544 memo=0", "nodes nodes=2718 heap=731146 memo=3214"}},
	{"CR03", "{Segments:[532 512 1 112 5] Classes:[272 263 1 86 3] IPClasses:1439 PortClasses:86 CombinedClasses:5669 MemoryWords:214707 WorstCaseAccesses:38}", [4]int{18081, 72560, 88, 123978}, "d27a6edc8e4bab668a5fefa67da469d9648fbfd5742cce87be3cedf4ed84a54e", "16d91d9006edf2640ae56bf4efe68140d996baf164ce5afb64b1b5be4355bdf1", [3]int{581, 1298, 5709}, [3]string{"nodes nodes=582 heap=120474 memo=0", "nodes nodes=1299 heap=526678 memo=0", "nodes nodes=5710 heap=2579224 memo=7194"}},
	{"CR04", "{Segments:[697 706 1 139 5] Classes:[357 365 1 106 3] IPClasses:1554 PortClasses:106 CombinedClasses:6025 MemoryWords:316306 WorstCaseAccesses:40}", [4]int{19479, 131717, 108, 165002}, "e6d8683bd56ed791d7b7ab982947e170253c86a3e30dfa07f5bf06153f53b94c", "0aba8ed12ce2ed080bb32056b199f8aabb37fa4cb3c04fc82a37640be73dba9b", [3]int{774, 1726, 6473}, [3]string{"nodes nodes=775 heap=200725 memo=0", "nodes nodes=1727 heap=922152 memo=0", "nodes nodes=6474 heap=3644187 memo=7685"}},
}

var goldenRFC = []crossProdGolden{
	{"FW01", "{Phase0Classes:[26 29 34 56 1 29 4] MemoryWords:443603 WorstCaseAccesses:13}", [4]int{178366, 131101, 67730, 66406}, "a16fe5fe927b26d8ef770d6e0957b84de9b8b01eaaa7709a8fc3341021d1cac8", "43dc5b3b76188167239856cebd3575c8addf11e8c4f47384d27f0182d50fd075", [3]int{162, 338, 1206}, [3]string{"nodes nodes=163 heap=1052814 memo=0", "nodes nodes=339 heap=1585354 memo=0", "nodes nodes=1207 heap=1826100 memo=1663"}},
	{"FW02", "{Phase0Classes:[47 44 55 99 1 36 4] MemoryWords:583915 WorstCaseAccesses:13}", [4]int{312600, 131108, 72459, 67748}, "38f6ede4f2d8a6d7f3fd07cb20d4e5eef8cbc879d1a473e6ba3f4c08e6f13316", "9e5040297a0f880edadd7b58ec905a2897966bf2f8d1b243bdaf5480ad5b4eab", [3]int{256, 536, 3091}, [3]string{"nodes nodes=257 heap=795684 memo=0", "nodes nodes=537 heap=1600628 memo=0", "nodes nodes=3092 heap=2534272 memo=5004"}},
	{"FW03", "{Phase0Classes:[90 87 80 193 1 55 4] MemoryWords:1470393 WorstCaseAccesses:13}", [4]int{1174448, 131127, 91232, 73586}, "ce723f7eabe1e421f74278e10f1f47579d853d568fb031fe03cc5c1d807c5bc1", "729bbbeddeb0b2018522de9636011794b7431528037b85d4f748d628d0b6fd2f", [3]int{459, 963, 10442}, [3]string{"nodes nodes=460 heap=811272 memo=0", "nodes nodes=964 heap=1654780 memo=0", "nodes nodes=10443 heap=6946290 memo=18799"}},
	{"CR01", "{Phase0Classes:[82 51 87 52 1 32 3] MemoryWords:418416 WorstCaseAccesses:13}", [4]int{144402, 131104, 73096, 69814}, "daa68f39dccf7f48b59d78079e56d8234ea322da102fe1bf32e0364b26752e2d", "a2200fbc85d90c57b3699cf430bc72b9232c9d0a9febfc2c44377958ef917e67", [3]int{283, 607, 981}, [3]string{"nodes nodes=284 heap=807164 memo=0", "nodes nodes=608 heap=1631934 memo=0", "nodes nodes=982 heap=1751190 memo=496"}},
	{"CR02", "{Phase0Classes:[155 94 153 88 1 39 3] MemoryWords:469185 WorstCaseAccesses:13}", [4]int{165979, 131111, 91872, 80223}, "c2d95189cf0a00989f87fae96f66ef6bd75123b8d3f8ba86873eded233141ca5", "26763afcbbe510d38768556b48862f00ab82607233eef8fba0f1db5e9bf9d55a", [3]int{471, 1020, 1716}, [3]string{"nodes nodes=472 heap=848264 memo=0", "nodes nodes=1021 heap=1755701 memo=0", "nodes nodes=1717 heap=2121579 memo=926"}},
	{"CR03", "{Phase0Classes:[249 137 248 142 1 86 3] MemoryWords:661313 WorstCaseAccesses:13}", [4]int{292920, 131158, 137328, 99907}, "84d3972623fef5b8339eb26d964e7aa4eb78cd3bfc58a3d36ceaee276bf6ec72", "5b05f73d819fe665ea6f4579521a6ce2c51a4e307ea28c5a20089f08e995ade9", [3]int{723, 1571, 3023}, [3]string{"nodes nodes=724 heap=936300 memo=0", "nodes nodes=1572 heap=2009869 memo=0", "nodes nodes=3024 heap=3389417 memo=2148"}},
	{"CR04", "{Phase0Classes:[322 185 330 179 1 106 3] MemoryWords:810673 WorstCaseAccesses:13}", [4]int{357974, 131178, 196097, 125424}, "677514f3ed2530f517b300d99d3c15c988535bd1433631d2b229d486a63f0609", "692a2b247428f1ed75d6610043ed0004cf1bf727aefa4b3facd05d908eee5642", [3]int{909, 1979, 3711}, [3]string{"nodes nodes=910 heap=1022122 memo=0", "nodes nodes=1980 heap=2283030 memo=0", "nodes nodes=3712 heap=4358464 memo=2490"}},
}
