package crossprod_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/crossprod"
	"repro/internal/hsm"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/pktgen"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// classifier is what the shared tests use of HSM and RFC.
type classifier interface {
	rules.BatchClassifier
	Program(rules.Header) nptrace.Program
	Verify([]rules.Header) error
	Image() *memlayout.Image
}

// algos builds each algorithm at cfg and returns its lookup's worst-case
// SRAM accesses; fixedCost is set when every lookup makes exactly that
// many.
var algos = []struct {
	name      string
	build     func(rs *rules.RuleSet, cfg crossprod.Config) (classifier, int, error)
	fixedCost bool
}{
	{"hsm", func(rs *rules.RuleSet, cfg crossprod.Config) (classifier, int, error) {
		c, err := hsm.New(rs, cfg)
		if err != nil {
			return nil, 0, err
		}
		return c, c.Stats().WorstCaseAccesses, nil
	}, false},
	{"rfc", func(rs *rules.RuleSet, cfg crossprod.Config) (classifier, int, error) {
		c, err := rfc.New(rs, cfg)
		if err != nil {
			return nil, 0, err
		}
		return c, c.Stats().WorstCaseAccesses, nil
	}, true},
}

func buildSet(t testing.TB, kind rulegen.Kind, size int, seed int64) *rules.RuleSet {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: kind, Size: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func trace(t testing.TB, rs *rules.RuleSet, n int, seed int64) []rules.Header {
	t.Helper()
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: n, Seed: seed, MatchFraction: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Headers
}

// checkOracle checks Classify and ClassifyBatch on hs against rs.Match.
func checkOracle(t *testing.T, c classifier, rs *rules.RuleSet, hs []rules.Header) {
	t.Helper()
	out := make([]int, len(hs))
	c.ClassifyBatch(hs, out)
	for i, h := range hs {
		if got, want := c.Classify(h), rs.Match(h); got != want || out[i] != want {
			t.Fatalf("%s: Classify(%v) = %d, ClassifyBatch %d, oracle %d", rs.Name, h, got, out[i], want)
		}
	}
}

func TestClassifyMatchesOracle(t *testing.T) {
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			for _, rs := range []*rules.RuleSet{buildSet(t, rulegen.Firewall, 85, 41), buildSet(t, rulegen.Firewall, 200, 41),
				buildSet(t, rulegen.CoreRouter, 250, 41), buildSet(t, rulegen.Random, 80, 41)} {
				c, _, err := a.build(rs, crossprod.Config{})
				if err != nil {
					t.Fatalf("%s: %v", rs.Name, err)
				}
				checkOracle(t, c, rs, trace(t, rs, 2000, 42))
			}
		})
	}
}

func TestNoMatchReturnsMinusOne(t *testing.T) {
	// A set with no default rule: headers outside every rule must yield -1.
	rs := rules.NewRuleSet("narrow", []rules.Rule{{
		SrcIP:   rules.Prefix{Addr: 0x0A000000, Len: 8},
		DstIP:   rules.Prefix{Addr: 0x0B000000, Len: 8},
		SrcPort: rules.FullPortRange,
		DstPort: rules.PortRange{Lo: 80, Hi: 80},
		Proto:   rules.ProtoMatch{Value: rules.ProtoTCP},
	}})
	// The oracle answers -1 for the first header and 0 for the second.
	hs := []rules.Header{{SrcIP: 0x0C000001}, {SrcIP: 0x0A000001, DstIP: 0x0B000001, DstPort: 80, Proto: rules.ProtoTCP}}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			c, _, err := a.build(rs, crossprod.Config{})
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, c, rs, hs)
			if err := c.Verify(hs); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSerializedLookupMatchesNative(t *testing.T) {
	rs := buildSet(t, rulegen.CoreRouter, 200, 43)
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			c, _, err := a.build(rs, crossprod.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Verify(trace(t, rs, 3000, 44)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestChannelRestriction(t *testing.T) {
	rs := buildSet(t, rulegen.Firewall, 90, 48)
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			for channels := 1; channels <= 4; channels++ {
				c, _, err := a.build(rs, crossprod.Config{Channels: channels})
				if err != nil {
					t.Fatal(err)
				}
				words := c.Image().ChannelWords()
				for ch := channels; ch < len(words); ch++ {
					if words[ch] != 0 {
						t.Errorf("channels=%d: channel %d has %d words", channels, ch, words[ch])
					}
				}
				if err := c.Verify(trace(t, rs, 300, 49)); err != nil {
					t.Fatalf("channels=%d: %v", channels, err)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	rs := buildSet(t, rulegen.Firewall, 20, 51)
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			for _, tc := range []struct {
				cfg  crossprod.Config
				want string
			}{
				{crossprod.Config{Channels: 9}, "channels 9 out of [1,4]"},
				{crossprod.Config{MaxTableEntries: -1}, "table cap -1 is negative"},
			} {
				if _, _, err := a.build(rs, tc.cfg); err == nil || err.Error() != a.name+": "+tc.want {
					t.Errorf("%+v: got %v, want %q", tc.cfg, err, a.name+": "+tc.want)
				}
			}
		})
	}
}

func TestTableCap(t *testing.T) {
	rs := buildSet(t, rulegen.CoreRouter, 300, 50)
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			_, _, err := a.build(rs, crossprod.Config{MaxTableEntries: 100})
			if err == nil || !strings.HasPrefix(err.Error(), a.name+": table 1 of ") || !strings.HasSuffix(err.Error(), "exceeds cap 100 entries") {
				t.Errorf("a 100-entry table cap: got %v, want the first table refused", err)
			}
		})
	}
}

func TestProgramWithinWorstCase(t *testing.T) {
	rs := buildSet(t, rulegen.Firewall, 120, 46)
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			c, bound, err := a.build(rs, crossprod.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range trace(t, rs, 800, 47) {
				p := c.Program(h)
				if p.Result != c.Classify(h) {
					t.Fatalf("program result mismatch for %v", h)
				}
				if p.Accesses() > bound || a.fixedCost && p.Accesses() != bound {
					t.Fatalf("program used %d accesses, worst case %d", p.Accesses(), bound)
				}
				for _, s := range p.Steps {
					if s.Words != 1 {
						t.Fatalf("access of %d words; all accesses must be single-word", s.Words)
					}
				}
			}
		})
	}
}

func TestSegments(t *testing.T) {
	spans := []rules.Span{{Lo: 10, Hi: 20}, {Lo: 15, Hi: 30}, {Lo: 0, Hi: 65535}}
	// Segments [0,9] [10,14] [15,20] [21,30] [31,65535].
	if got, want := crossprod.Segments(spans, 65535), []uint32{0, 10, 15, 21, 31}; !reflect.DeepEqual(got, want) {
		t.Errorf("segment starts = %v, want %v", got, want)
	}
}

func TestSegmentsFullDomainEdge(t *testing.T) {
	// A span ending at the domain max must not generate an overflowed
	// boundary: not at 16 bits, and not at the 32-bit IP boundary.
	for _, max := range []uint32{65535, 0xFFFFFFFF} {
		if got, want := crossprod.Segments([]rules.Span{{Lo: max - 5, Hi: max}}, max), []uint32{0, max - 5}; !reflect.DeepEqual(got, want) {
			t.Errorf("max %d: segment starts = %v, want %v", max, got, want)
		}
	}
}

func cr04(tb testing.TB) *rules.RuleSet {
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// TestBuildAllocationBound caps the heap allocations of one CR04 build.
// Nearly all intern classes (a clone and a map key per class); the phase-0
// sweep reuses one scratch bitset, where a bitset per segment made 18 957
// (HSM) and 9 482 (RFC).
func TestBuildAllocationBound(t *testing.T) {
	rs := cr04(t)
	for i, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(1, func() {
				if _, _, err := a.build(rs, crossprod.Config{}); err != nil {
					t.Fatal(err)
				}
			})
			if max := [...]float64{18000, 8500}[i]; allocs > max {
				t.Errorf("New(CR04) made %.0f allocations, want <= %.0f", allocs, max)
			}
		})
	}
}

func BenchmarkBuild(b *testing.B) {
	rs := cr04(b)
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := a.build(rs, crossprod.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassifyBatch times the native batch walk over a 4 096-header
// CR04 trace, per header.
func BenchmarkClassifyBatch(b *testing.B) {
	rs := cr04(b)
	hs := trace(b, rs, 4096, 9)
	out := make([]int, len(hs))
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			c, _, err := a.build(rs, crossprod.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ClassifyBatch(hs, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hs)), "ns/pkt")
		})
	}
}
