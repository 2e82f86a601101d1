package expcuts

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// TestClassifyBatchPipelinedMatchesScalar is the in-package conformance
// matrix for the pipelined walk: every group size (including the clamped
// extremes), affine on and off, odd tail lengths, all against the scalar
// arena walk.
func TestClassifyBatchPipelinedMatchesScalar(t *testing.T) {
	tree, hs := batchFixture(t)
	groups := []int{1, 3, 8, 64, 0 /* default */, MaxPipelineGroup + 5 /* clamped */}
	sizes := []int{1, 3, 7, 64, 65, len(hs)}
	for _, group := range groups {
		for _, affine := range []bool{false, true} {
			for _, size := range sizes {
				batch := hs[:size]
				out := make([]int, size)
				for i := range out {
					out[i] = -999 // poison: every slot must be written
				}
				tree.ClassifyBatchPipelined(batch, out, group, affine)
				for i, h := range batch {
					if want := tree.Classify(h); out[i] != want {
						t.Fatalf("group=%d affine=%v size=%d packet %d: pipelined %d, scalar %d",
							group, affine, size, i, out[i], want)
					}
				}
			}
		}
	}
}

// TestClassifyBatchPipelinedZeroAllocSteadyState is the allocation gate on
// the pipelined path, mirroring TestClassifyBatchZeroAllocSteadyState.
func TestClassifyBatchPipelinedZeroAllocSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops random Puts under the race detector; the gate runs in the non-race pass")
	}
	tree, hs := batchFixture(t)
	batch := hs[:64]
	out := make([]int, len(batch))
	tree.ClassifyBatchPipelined(batch, out, 8, true) // warm the pool

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, affine := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() {
			tree.ClassifyBatchPipelined(batch, out, 8, affine)
		}); n != 0 {
			t.Fatalf("steady-state pipelined walk (affine=%v) allocates %.2f times per op, want 0",
				affine, n)
		}
	}
}

// TestClassifyBatchPipelinedDegenerateTree covers the root-is-terminal
// shape on the pipelined path.
func TestClassifyBatchPipelinedDegenerateTree(t *testing.T) {
	rs := rules.NewRuleSet("wildcard", []rules.Rule{{
		SrcPort: rules.FullPortRange,
		DstPort: rules.FullPortRange,
		Proto:   rules.AnyProto,
	}})
	tree, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := []rules.Header{
		{},
		{SrcIP: 0xFFFFFFFF, DstIP: 0xFFFFFFFF, SrcPort: 65535, DstPort: 65535, Proto: 255},
	}
	out := make([]int, len(hs))
	tree.ClassifyBatchPipelined(hs, out, 4, true)
	for i, h := range hs {
		if want := tree.Classify(h); out[i] != want {
			t.Errorf("packet %d: pipelined %d, scalar %d", i, out[i], want)
		}
	}
}

// TestClassifyBatchPipelinedSharedOut pins that consecutive pipelined
// batches reusing one out slice do not leak walk state across calls (out
// carries raw refs mid-walk, like ClassifyBatch).
func TestClassifyBatchPipelinedSharedOut(t *testing.T) {
	tree, hs := batchFixture(t)
	out := make([]int, 64)
	for round := 0; round < 4; round++ {
		batch := hs[round*64 : (round+1)*64]
		tree.ClassifyBatchPipelined(batch, out, 3, round%2 == 0)
		for i, h := range batch {
			if want := tree.Classify(h); out[i] != want {
				t.Fatalf("round %d packet %d: pipelined %d, scalar %d", round, i, out[i], want)
			}
		}
	}
}

// TestReorderImageByteIdentical is the serialized-image regression gate for
// the level-major arena reorder: a tree built in raw recursion order and a
// tree built with the reorder must save bit-for-bit identical images (the
// reorder is stable within each level, and serialize already groups levels).
func TestReorderImageByteIdentical(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 300, Seed: 801})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(rs, Config{noLevelMajor: true})
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.Image().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := reordered.Image().Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("serialized image changed across level-major reorder: %d vs %d bytes (or content differs)",
			a.Len(), b.Len())
	}
	if plain.rootPtr != reordered.rootPtr {
		t.Fatalf("root pointer word changed: %#x vs %#x", plain.rootPtr, reordered.rootPtr)
	}
}

// TestReorderLevelMajorContiguity pins the layout property the pipelined
// walk relies on: after the reorder, node ids are partitioned into
// contiguous ascending level runs, children always live on the next level,
// and the walks still agree with the pointer graph.
func TestReorderLevelMajorContiguity(t *testing.T) {
	tree, hs := batchFixture(t)
	for id, n := range tree.nodes {
		if id > 0 && n.level < tree.nodes[id-1].level {
			t.Fatalf("node %d (level %d) follows node %d (level %d): levels decrease",
				id, n.level, id-1, tree.nodes[id-1].level)
		}
		for _, rn := range n.runs {
			if p := rn.ref; p >= 0 && tree.nodes[p].level != n.level+1 {
				t.Fatalf("node %d (level %d) points to node %d (level %d)",
					id, n.level, p, tree.nodes[p].level)
			}
		}
	}
	if err := checkArena(tree, hs); err != nil {
		t.Fatal(err)
	}
}

// TestScratchPoolRetentionCap checks that a jumbo batch's grown scratch is
// dropped on release instead of being pinned in the pools forever.
func TestScratchPoolRetentionCap(t *testing.T) {
	sc := &batchScratch{keys: make([][2]uint64, maxPooledBatch+1)}
	sc.release()
	if sc.keys != nil {
		t.Error("batchScratch release kept an oversized keys slice")
	}
	sc = &batchScratch{keys: make([][2]uint64, maxPooledBatch)}
	sc.release()
	if sc.keys == nil {
		t.Error("batchScratch release dropped a within-cap keys slice")
	}

	ps := &pipeScratch{keys: make([][2]uint64, maxPooledBatch+1)}
	ps.release()
	if ps.keys != nil {
		t.Error("pipeScratch release kept an oversized scratch")
	}
	ps = &pipeScratch{keys: make([][2]uint64, maxPooledBatch), cnt: make([]int32, 257)}
	ps.release()
	if ps.keys == nil || ps.cnt == nil {
		t.Error("pipeScratch release dropped a within-cap scratch")
	}
}

// TestClassifyBatchPipelinedJumbo exercises a batch larger than the pool
// retention cap end-to-end (grow, classify, drop on release).
func TestClassifyBatchPipelinedJumbo(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 100, Seed: 811})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(rs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: maxPooledBatch + 100, Seed: 812, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(tr.Headers))
	tree.ClassifyBatchPipelined(tr.Headers, out, 16, true)
	for i, h := range tr.Headers {
		if want := tree.Classify(h); out[i] != want {
			t.Fatalf("packet %d: pipelined %d, scalar %d", i, out[i], want)
		}
	}
}
