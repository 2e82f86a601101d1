package expcuts

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/buildgov"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// TestGoldenBuilds pins the tree each of the paper's seven rule sets
// builds: node count, serialized footprint, the SHA-256 of the saved SRAM
// image and the mean distinct children per node. For CR01 and CR04 it also
// pins the builder's work — build calls, signatures and memo hits — so a
// builder that returns to expanding every cell of every node fails here
// even though it builds the same tree. (Per-cell expansion took 439 553
// calls and 234 999 signatures on CR01, 2 935 297 and 1 798 358 on CR04.)
// Every set also pins its native arena, so the CPA cannot grow back from
// one ref per run to one per cell or per 16-cell HABS sub-array (CR04's
// arena held 405 088 refs that way, 34 793 as runs).
func TestGoldenBuilds(t *testing.T) {
	for _, g := range []struct {
		set         string
		nodes       int
		bytes       int
		sha256      string
		avgChildren float64
		work        buildWork // zero: not pinned
		// The native arena: surviving nodes and CPA refs, one per run.
		arenaNodes, cpaRefs int
	}{
		{"FW01", 6224, 870272, "4d4f825da6794c3aad730c2d9d5f3a60d59cdf6e28290829d47985fa7ac7c572", 1.9286632390745502, buildWork{},
			3679, 13583},
		{"FW02", 20500, 2635280, "e15345e86714c77be9cb726f4bb8c90a4c4dde03db199fa8df342c9c063b378b", 1.8437560975609757, buildWork{},
			10802, 40645},
		{"FW03", 79894, 10249752, "05e6557063c87c016ff615c3609d90320441e60a961742a521fd31f6fc351c67", 1.8870253085338073, buildWork{},
			43793, 162773},
		{"CR01", 1717, 293972, "4fd3a869821ebe6f88d530bfb392ad3f3c922a4f20593abfd9a04a3b01887df5", 2.156668608037274,
			buildWork{calls: 8335, sigs: 4900, hits: 3183}, 1039, 4753},
		{"CR02", 4073, 717348, "fb04d09fcf7e1ee65a2bd56ee03e254828fb19890da4ca41206270730e030477", 2.210164497913086, buildWork{},
			2582, 11958},
		{"CR03", 11608, 1928736, "20cf9766e96f9c5c634633d56b7e0c3888824d90e27dfbb05ca831de06e30f8e", 2.1612680909717437, buildWork{},
			6854, 32011},
		{"CR04", 11466, 1972712, "18b2665caa50eba0d8dd2670b216b303deb2f11a6dcddd6cc7684d75533a2688", 2.2949590092447236,
			buildWork{calls: 60231, sigs: 37862, hits: 26396}, 6677, 34793},
	} {
		rs, err := rulegen.Standard(g.set)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(rs, Config{})
		if err != nil {
			t.Fatalf("%s: %v", g.set, err)
		}
		st := tree.Stats()
		if st.Nodes != g.nodes || tree.MemoryBytes() != g.bytes {
			t.Errorf("%s: %d nodes, %d B; want %d nodes, %d B", g.set, st.Nodes, tree.MemoryBytes(), g.nodes, g.bytes)
		}
		if math.Abs(st.AvgUniqueChildren-g.avgChildren) > 1e-12 {
			t.Errorf("%s: %v distinct children per node, want %v", g.set, st.AvgUniqueChildren, g.avgChildren)
		}
		h := sha256.New()
		if err := tree.Image().Save(h); err != nil {
			t.Fatal(err)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != g.sha256 {
			t.Errorf("%s: image SHA-256 %s, want %s", g.set, sum, g.sha256)
		}
		if g.work != (buildWork{}) && tree.work != g.work {
			t.Errorf("%s: builder work %+v, want %+v", g.set, tree.work, g.work)
		}
		if n, refs := len(tree.ar.nodes), len(tree.ar.cpa); n != g.arenaNodes || refs != g.cpaRefs {
			t.Errorf("%s: arena of %d nodes, %d CPA refs; want %d, %d", g.set, n, refs, g.arenaNodes, g.cpaRefs)
		}
		// Format change: ArenaBytes counts the wide root too, 8 KiB of run
		// words, 2 KiB of rank prefixes and 4 B per run.
		if got, want := tree.ArenaBytes(), g.arenaNodes*64+g.cpaRefs*4+10240+len(tree.ar.wide.refs)*4; got != want {
			t.Errorf("%s: ArenaBytes %d, want %d", g.set, got, want)
		}
	}
}

// TestBuildChargesAreExact checks that the governor's node and memo counts
// equal what the built graph holds: each node and memo entry is charged
// once, and the cells a class build skips charge nothing.
func TestBuildChargesAreExact(t *testing.T) {
	rs := buildSet(t, rulegen.CoreRouter, 500, 321)
	for _, sharing := range []SharingMode{ShareGlobal, ShareSiblings} {
		cfg := Config{Sharing: sharing}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		tree := &Tree{cfg: cfg, rs: rs}
		gov := buildgov.Start(context.Background(), &buildgov.Budget{})
		if err := tree.buildGraph(gov); err != nil {
			t.Fatalf("%v: %v", sharing, err)
		}
		st := gov.Stats()
		if st.Nodes != len(tree.nodes) {
			t.Errorf("%v: governor charged %d nodes, graph has %d", sharing, st.Nodes, len(tree.nodes))
		}
		// Every node but a memo-less root entered a memo once.
		memoNodes := len(tree.nodes)
		if sharing == ShareSiblings {
			memoNodes--
		}
		if st.MemoEntries != memoNodes || tree.work.sigs-tree.work.hits != memoNodes {
			t.Errorf("%v: %d memo entries charged, %d signature misses, want %d",
				sharing, st.MemoEntries, tree.work.sigs-tree.work.hits, memoNodes)
		}
	}
}

// TestBuildAllocationBound caps the heap allocations of one CR04 build.
// The builder keeps every node's class rule lists on one stack, probes the
// memo without copying the signature and encodes the image through one
// reused buffer: ≈ 23 000 allocations per build, most of them the nodes'
// runs and memo keys, where one rule list per class, one key per probe and
// one slice per encoded node made ≈ 246 000. A builder that returns to
// per-class lists builds the same tree and fails here (≈ 142 000). The
// image sizes each SRAM channel once, so a build allocates ≈ 9.4 MB; an
// image grown node by node by append made it ≈ 18.6 MB.
func TestBuildAllocationBound(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("enforced in the non-race pass, beside the zero-allocation gates")
	}
	rs, err := rulegen.Standard("CR04")
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := New(rs, Config{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	n := m1.Mallocs - m0.Mallocs
	if n > 120000 {
		t.Fatalf("New(CR04) made %d allocations, want <= 120000", n)
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 10e6 {
		t.Fatalf("New(CR04) allocated %d B, want <= 10 MB", b)
	}
	t.Logf("New(CR04) made %d allocations, %d B", n, m1.TotalAlloc-m0.TotalAlloc)
}

// checkRuns checks the builder graph's run invariant: every node's run ends
// strictly increase up to 2^w, adjacent runs hold different refs (the runs
// are maximal), and every node ref points one level down.
func checkRuns(tree *Tree) error {
	cells := int32(1) << tree.cfg.StrideW
	for id, n := range tree.nodes {
		if len(n.runs) == 0 || n.runs[len(n.runs)-1].end != cells {
			return fmt.Errorf("node %d: runs %v do not end at cell %d", id, n.runs, cells)
		}
		for k, rn := range n.runs {
			if k == 0 && rn.end <= 0 || k > 0 && rn.end <= n.runs[k-1].end {
				return fmt.Errorf("node %d: run %d ends at %d, not after the previous run (runs %v)", id, k, rn.end, n.runs)
			}
			if k > 0 && rn.ref == n.runs[k-1].ref {
				return fmt.Errorf("node %d: runs %d and %d both hold %d, a run that is not maximal", id, k-1, k, rn.ref)
			}
			if rn.ref >= 0 && (int(rn.ref) >= len(tree.nodes) || tree.nodes[rn.ref].level != n.level+1) {
				return fmt.Errorf("node %d (level %d): run %d holds %d, not a node one level down", id, n.level, k, rn.ref)
			}
		}
	}
	return nil
}

// TestGraphRuns checks the run invariant on every node of the seven paper
// builds, of small builds at every stride and sharing mode (ShareNone
// builds every cell as its own class, so its runs are all merges), and of
// the hand-built graphs.
func TestGraphRuns(t *testing.T) {
	for _, set := range []string{"FW01", "FW02", "FW03", "CR01", "CR02", "CR03", "CR04"} {
		rs, err := rulegen.Standard(set)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(rs, Config{})
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		if err := checkRuns(tree); err != nil {
			t.Errorf("%s: %v", set, err)
		}
	}

	points := make([]rules.Rule, 4)
	for i := range points {
		points[i] = rules.Rule{
			SrcIP:   rules.Prefix{Addr: 0x0A000000 + uint32(i)*0x01010101, Len: 32},
			DstIP:   rules.Prefix{Addr: 0xC0A80000 + uint32(i)*257, Len: 32},
			SrcPort: rules.PortRange{Lo: uint16(1000 + i), Hi: uint16(1000 + i)},
			DstPort: rules.PortRange{Lo: 80, Hi: 80},
			Proto:   rules.ProtoMatch{Value: rules.ProtoTCP},
		}
	}
	pointSet := rules.NewRuleSet("points", points)
	for _, w := range []uint{1, 2, 4, 8} {
		for _, sharing := range []SharingMode{ShareGlobal, ShareSiblings, ShareNone} {
			tree, err := New(pointSet, Config{StrideW: w, Sharing: sharing})
			if err != nil {
				t.Fatalf("points w=%d %v: %v", w, sharing, err)
			}
			if err := checkRuns(tree); err != nil {
				t.Errorf("points w=%d %v: %v", w, sharing, err)
			}
		}
	}

	wild := rules.NewRuleSet("wild", []rules.Rule{
		{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto},
	})
	for _, leaf := range []ref{refLeaf(0), refNoMatch} {
		tree := graphTree(t, wild, 0, uniformNode(0, 1), uniformNode(1, 2), uniformNode(2, leaf))
		if err := checkRuns(tree); err != nil {
			t.Errorf("hand-built chain to %d: %v", leaf, err)
		}
	}
}
