// Regression tests for sharded-runtime lifecycle bugs: goroutine leaks
// on mid-construction failure.
package engine

import (
	"errors"
	"runtime"
	"strings"
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
