// Regression tests for sharded-runtime lifecycle bugs: goroutine leaks
// on mid-construction failure, and Describer sampling that froze the
// run's algorithm label before serving started.
package engine

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/flowcache"
)

// TestShardedNoLeakOnFlowCacheFailure: when a later shard's flow cache
// fails to construct, RunContext must return the error without leaking
// the serve goroutines of the shards built before it. The old code
// launched each shard's goroutine inside the construction loop, so a
// failure at shard i left shards 0..i-1 blocked forever on their
// never-closed job rings.
func TestShardedNoLeakOnFlowCacheFailure(t *testing.T) {
	orig := newFlowCache
	defer func() { newFlowCache = orig }()
	boom := errors.New("injected flow-cache failure")
	calls := 0
	newFlowCache = func(cl Classifier, flows int) (*flowcache.Cache, error) {
		calls++
		if calls == 3 {
			return nil, boom
		}
		return flowcache.New(cl, flows)
	}

	_, tree, headers := fixtures(t, 256)
	base := runtime.NumGoroutine()
	emitted := 0
	_, err := Run(tree, Config{Shards: 4, FlowCacheFlows: 64, PreserveOrder: true},
		headers, func(Result) { emitted++ })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected construction failure", err)
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Errorf("error should name the failing shard: %v", err)
	}
	if emitted != 0 {
		t.Errorf("emit called %d times on a run that never started serving", emitted)
	}
	waitNoLeaks(t, base)
}

// TestFlowCacheCapacityErrorSurfaces: a real (non-injected) construction
// failure — the flow cache rejecting an overflowing capacity — takes the
// same early-return path, stays typed through the wrap, and leaks
// nothing.
func TestFlowCacheCapacityErrorSurfaces(t *testing.T) {
	_, tree, headers := fixtures(t, 64)
	base := runtime.NumGoroutine()
	// Incremented at runtime so the constant expression never trips the
	// untyped-constant overflow rules.
	over := int(flowcache.MaxCapacity)
	over++
	if over < 0 {
		t.Skip("int cannot express a capacity beyond MaxCapacity on this platform")
	}
	_, err := Run(tree, Config{Shards: 2, FlowCacheFlows: over}, headers, func(Result) {})
	var ce *flowcache.CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a wrapped *flowcache.CapacityError", err)
	}
	if ce.Capacity != over {
		t.Errorf("CapacityError.Capacity = %d, want %d", ce.Capacity, over)
	}
	waitNoLeaks(t, base)
}

// swappingDescriber reports one algorithm until its swapped flag is set
// — the smallest model of a hot-swap landing mid-run. The test sets the
// flag from the emit callback, which runs on the same goroutine that
// takes both Stats samples: the first sample provably precedes every
// emit and the final sample follows them all, so the expected values are
// deterministic rather than racing the serving pipeline.
type swappingDescriber struct {
	Classifier
	swapped atomic.Bool
}

func (s *swappingDescriber) DescribeAlgorithm() (string, int) {
	if s.swapped.Load() {
		return "hsm", 2
	}
	return "expcuts", 0
}

// TestDescriberResampledAfterServing: Stats must carry both the
// algorithm that started the run and the one live when it finished. The
// old code sampled DescribeAlgorithm once, before serving, so a mid-run
// swap or rung change was invisible in the run's stats. Exercised on
// both serving paths.
func TestDescriberResampledAfterServing(t *testing.T) {
	_, tree, headers := fixtures(t, 2000)
	for _, cfg := range []Config{
		{Workers: 4, PreserveOrder: true},                    // unsharded worker pool
		{Shards: 3, PreserveOrder: true},                     // sharded
		{Shards: 1, FlowCacheFlows: 64, PreserveOrder: true}, // sharded via cache
	} {
		cl := &swappingDescriber{Classifier: tree}
		st, err := Run(cl, cfg, headers, func(Result) { cl.swapped.Store(true) })
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if st.Algorithm != "expcuts" || st.DegradationLevel != 0 {
			t.Errorf("%+v: first sample = %q/%d, want expcuts/0 (sampled before serving)",
				cfg, st.Algorithm, st.DegradationLevel)
		}
		if st.FinalAlgorithm != "hsm" || st.FinalDegradationLevel != 2 {
			t.Errorf("%+v: final sample = %q/%d, want hsm/2 (re-sampled after serving)",
				cfg, st.FinalAlgorithm, st.FinalDegradationLevel)
		}
	}
}
