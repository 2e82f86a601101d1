package repro

import (
	"bytes"
	"testing"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow: load a
// standard rule set, build every classifier, agree with linear search, and
// simulate throughput.
func TestPublicAPIEndToEnd(t *testing.T) {
	rs, err := StandardRuleSet("CR01")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(rs, 500, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewLinear(rs)

	ec, err := NewExpCuts(rs, ExpCutsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewHiCuts(rs, HiCutsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHSM(rs, HSMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := NewRFC(rs, RFCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []Classifier{ec, hc, hs, rf} {
		for _, h := range tr.Headers {
			if got, want := cl.Classify(h), oracle.Classify(h); got != want {
				t.Fatalf("%s: Classify(%v) = %d, oracle %d", cl.Name(), h, got, want)
			}
		}
		if cl.MemoryBytes() <= 0 {
			t.Errorf("%s: MemoryBytes = %d", cl.Name(), cl.MemoryBytes())
		}
	}

	res, err := SimulateThroughput(ec, tr.Headers[:100], DefaultNPConfig(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMbps <= 0 {
		t.Errorf("throughput = %v", res.ThroughputMbps)
	}
}

func TestPublicAPIRuleSetIO(t *testing.T) {
	rs, err := GenerateRuleSet(FirewallRules, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseRuleSet("roundtrip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rs.Len() {
		t.Fatalf("round trip lost rules: %d -> %d", rs.Len(), back.Len())
	}
}

func TestPublicAPIStandardNames(t *testing.T) {
	names := StandardRuleSetNames()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		rs, err := StandardRuleSet(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if rs.Name != n {
			t.Errorf("set name %q != %q", rs.Name, n)
		}
	}
}

func TestPublicAPIApplication(t *testing.T) {
	rs, err := StandardRuleSet("FW01")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(rs, 200, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := NewExpCuts(rs, ExpCutsConfig{Headroom: PaperHeadroom})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateApplication(ec, tr.Headers, DefaultAppConfig(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMbps <= 0 {
		t.Errorf("throughput = %v", res.ThroughputMbps)
	}
}

func TestPublicAPIHyperCuts(t *testing.T) {
	rs, err := StandardRuleSet("FW01")
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := NewHyperCuts(rs, HyperCutsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewLinear(rs)
	tr, err := GenerateTrace(rs, 400, 3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.Headers {
		if got, want := hyper.Classify(h), oracle.Classify(h); got != want {
			t.Fatalf("HyperCuts Classify(%v) = %d, oracle %d", h, got, want)
		}
	}
}

func TestPublicAPIEngine(t *testing.T) {
	rs, err := StandardRuleSet("FW01")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewExpCuts(rs, ExpCutsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(rs, 3000, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	st, err := RunEngine(tree, EngineConfig{Shards: 4, PreserveOrder: true}, tr.Headers, func(r EngineResult) {
		if r.Seq != next {
			t.Fatalf("out of order: got %d, want %d", r.Seq, next)
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != tr.Len() {
		t.Errorf("packets = %d", st.Packets)
	}
}

func TestPublicAPIWire(t *testing.T) {
	in := Header{SrcIP: 0x0A000001, DstIP: 0x0B000002, SrcPort: 1024, DstPort: 80, Proto: ProtoTCP}
	out, err := ParseFrame(BuildFrame(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("wire round trip: %v != %v", out, in)
	}
}
