package expcuts

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// TestParallelBuildMatchesSequential builds the same rule sets with 1, 2,
// 3 and 8 workers and checks that every variant classifies identically to
// the sequential tree and the oracle (batched and scalar), that repeated
// parallel builds are deterministic, and that governor accounting is
// exact (charged nodes == nodes in the tree, none lost or
// double-counted).
func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		kind    rulegen.Kind
		size    int
		sharing SharingMode
	}{
		{rulegen.CoreRouter, 400, ShareGlobal},
		{rulegen.Firewall, 200, ShareGlobal},
		{rulegen.CoreRouter, 150, ShareSiblings},
		{rulegen.Random, 80, ShareGlobal},
	} {
		rs := buildSet(t, tc.kind, tc.size, 311)
		headers := trace(t, rs, 1200, 312)
		seq, err := New(rs, Config{Sharing: tc.sharing})
		if err != nil {
			t.Fatalf("%v/%d sequential: %v", tc.kind, tc.size, err)
		}
		for _, workers := range []int{2, 8} {
			cfg := Config{Sharing: tc.sharing, BuildWorkers: workers}
			par, err := NewCtx(context.Background(), rs, cfg, &buildgov.Budget{})
			if err != nil {
				t.Fatalf("%v/%d workers=%d: %v", tc.kind, tc.size, workers, err)
			}
			out := make([]int, len(headers))
			par.ClassifyBatch(headers, out)
			for i, h := range headers {
				want := rs.Match(h)
				if got := par.Classify(h); got != want {
					t.Fatalf("%v/%d workers=%d: Classify(%v) = %d, oracle = %d",
						tc.kind, tc.size, workers, h, got, want)
				}
				if seqGot := seq.Classify(h); seqGot != want {
					t.Fatalf("%v/%d: sequential tree disagrees with oracle", tc.kind, tc.size)
				}
				if out[i] != want {
					t.Fatalf("%v/%d workers=%d: batched %d != oracle %d", tc.kind, tc.size, workers, out[i], want)
				}
			}
			if err := checkArena(par, headers); err != nil {
				t.Fatalf("%v/%d workers=%d: %v", tc.kind, tc.size, workers, err)
			}
			// Determinism: same worker count, same tree shape.
			again, err := NewCtx(context.Background(), rs, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(again.nodes) != len(par.nodes) || again.root != par.root {
				t.Fatalf("%v/%d workers=%d: parallel build is not deterministic (%d/%d nodes, roots %d/%d)",
					tc.kind, tc.size, workers, len(par.nodes), len(again.nodes), par.root, again.root)
			}
		}
	}
}

// TestParallelBuildChargesAreExact builds in parallel under an unlimited
// budget and checks the governor's node count equals the built tree's
// node count exactly: concurrent charging must neither lose nor
// double-count.
func TestParallelBuildChargesAreExact(t *testing.T) {
	rs := buildSet(t, rulegen.CoreRouter, 500, 321)
	for _, workers := range []int{1, 2, 4, 8} {
		gov := buildgov.Start(context.Background(), &buildgov.Budget{})
		cfg := Config{Sharing: ShareGlobal}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		tree := &Tree{cfg: cfg, rs: rs}
		all := make([]int32, rs.Len())
		for i := range all {
			all[i] = int32(i)
		}
		var cnt atomic.Int64
		var err error
		if workers > 1 {
			tree.root, err = tree.buildParallel(gov, &cnt, all, workers)
		} else {
			b := &builder{t: tree, mode: cfg.Sharing, gov: gov, count: &cnt,
				memo: make(map[string]ref)}
			tree.root, err = b.build(0, rules.FullBox(), all, b.memo)
			tree.nodes = b.nodes
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := gov.Stats().Nodes, len(tree.nodes); got != want {
			t.Fatalf("workers=%d: governor charged %d nodes, tree has %d (lost or double-counted)",
				workers, got, want)
		}
	}
}

// TestParallelBuildTripUnwindsWithinDeadline starts a parallel build of a
// pathological rule set under a tight wall-clock budget and requires the
// whole worker pool to unwind within 2x the deadline — the PR 2
// guarantee, extended to fan-out.
func TestParallelBuildTripUnwindsWithinDeadline(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Random, Size: 2500, Seed: 331})
	if err != nil {
		t.Fatal(err)
	}
	timeout := 100 * time.Millisecond
	for _, workers := range []int{2, 8} {
		start := time.Now()
		_, err := NewCtx(context.Background(), rs,
			Config{Sharing: ShareNone, BuildWorkers: workers},
			&buildgov.Budget{Timeout: timeout})
		elapsed := time.Since(start)
		if err == nil {
			// The set built inside the budget; that's a pass for unwind
			// purposes but the timing bound below still applies.
			t.Logf("workers=%d: build finished inside budget in %v", workers, elapsed)
		} else if !errors.Is(err, buildgov.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: %v is not a budget trip", workers, err)
		}
		if elapsed > 2*timeout {
			t.Fatalf("workers=%d: unwind took %v, want <= 2x the %v deadline", workers, elapsed, timeout)
		}
	}
}

// TestParallelBuildNodeCapTrips checks the shared MaxNodes counter trips
// parallel builds with bounded overshoot (at most one in-flight node per
// worker).
func TestParallelBuildNodeCapTrips(t *testing.T) {
	rs := buildSet(t, rulegen.CoreRouter, 400, 341)
	_, err := NewCtx(context.Background(), rs,
		Config{BuildWorkers: 4, MaxNodes: 20}, nil)
	if err == nil {
		t.Fatal("MaxNodes=20 build unexpectedly succeeded")
	}
}
