package engine

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rules"
)

// countingPipeliner wraps a PipelinedClassifier and records which path the
// engine drove, plus the group/affine settings it was handed.
type countingPipeliner struct {
	inner      PipelinedClassifier
	pipeCalls  atomic.Int64
	batchCalls atomic.Int64
	lastGroup  atomic.Int64
	affine     atomic.Bool
}

func (c *countingPipeliner) Classify(h rules.Header) int { return c.inner.Classify(h) }

func (c *countingPipeliner) ClassifyBatch(hs []rules.Header, out []int) {
	c.batchCalls.Add(1)
	c.inner.ClassifyBatch(hs, out)
}

func (c *countingPipeliner) ClassifyBatchPipelined(hs []rules.Header, out []int, group int, affine bool) {
	c.pipeCalls.Add(1)
	c.lastGroup.Store(int64(group))
	c.affine.Store(affine)
	c.inner.ClassifyBatchPipelined(hs, out, group, affine)
}

// TestPipelinedPathUsed proves PipelineGroup actually routes every batch —
// unsharded, sharded, and flow-cache miss sub-batches — through
// ClassifyBatchPipelined with the configured settings, with answers
// matching the oracle and zero plain-batch calls.
func TestPipelinedPathUsed(t *testing.T) {
	rs, tree, headers := fixtures(t, 4000)
	for _, cfg := range []Config{
		{Shards: 4, PreserveOrder: true, PipelineGroup: 16, PipelineAffine: true},
		{Shards: 3, PreserveOrder: true, PipelineGroup: 16, PipelineAffine: true},
		{Shards: 2, FlowCacheFlows: 256, PreserveOrder: true, PipelineGroup: 16, PipelineAffine: true},
	} {
		cp := &countingPipeliner{inner: tree}
		st, err := Run(cp, cfg, headers, func(r Result) {
			if want := rs.Match(r.Header); r.Match != want {
				t.Fatalf("packet %d: match %d, oracle %d", r.Seq, r.Match, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Packets != len(headers) {
			t.Errorf("packets = %d, want %d", st.Packets, len(headers))
		}
		if cp.pipeCalls.Load() == 0 {
			t.Errorf("cfg %+v: pipelined walk was never used", cfg)
		}
		if n := cp.batchCalls.Load(); n != 0 {
			t.Errorf("cfg %+v: %d plain ClassifyBatch calls leaked past the pipelined adapter", cfg, n)
		}
		if g := cp.lastGroup.Load(); g != 16 {
			t.Errorf("cfg %+v: group %d reached the classifier, want 16", cfg, g)
		}
		if !cp.affine.Load() {
			t.Errorf("cfg %+v: affine flag did not reach the classifier", cfg)
		}
	}
}

// TestPipelinedOffByDefault pins the zero-value contract: without
// PipelineGroup the adapter stays out of the way and the plain batch path
// serves.
func TestPipelinedOffByDefault(t *testing.T) {
	_, tree, headers := fixtures(t, 1000)
	cp := &countingPipeliner{inner: tree}
	if _, err := Run(cp, Config{Shards: 2, PreserveOrder: true}, headers, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if n := cp.pipeCalls.Load(); n != 0 {
		t.Errorf("pipelined walk used %d times with PipelineGroup unset", n)
	}
	if cp.batchCalls.Load() == 0 {
		t.Error("plain batch path was never used")
	}
}

// TestPipelineConfigValidation covers the knob's edges: auto resolution,
// rejected negatives, and affine-without-pipeline.
func TestPipelineConfigValidation(t *testing.T) {
	c := Config{PipelineGroup: PipelineAuto}
	if err := c.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.PipelineGroup <= 0 {
		t.Errorf("PipelineAuto resolved to %d, want > 0", c.PipelineGroup)
	}
	if want := AutoPipelineGroup(); c.PipelineGroup != want {
		t.Errorf("PipelineAuto resolved to %d, AutoPipelineGroup says %d", c.PipelineGroup, want)
	}

	c = Config{PipelineGroup: -2}
	if err := c.fillDefaults(); err == nil || !strings.Contains(err.Error(), "pipeline group") {
		t.Errorf("PipelineGroup -2: err = %v, want pipeline group error", err)
	}

	c = Config{PipelineAffine: true}
	if err := c.fillDefaults(); err == nil || !strings.Contains(err.Error(), "PipelineAffine") {
		t.Errorf("affine without group: err = %v, want PipelineAffine error", err)
	}
}

// TestAutoPipelineGroupBounds sanity-checks the GOMAXPROCS derivation on
// this host: positive, no larger than a default batch, and at least the
// floor.
func TestAutoPipelineGroupBounds(t *testing.T) {
	g := AutoPipelineGroup()
	if g < 8 || g > DefaultBatchSize {
		t.Errorf("AutoPipelineGroup() = %d (GOMAXPROCS %d), want within [8,%d]",
			g, runtime.GOMAXPROCS(0), DefaultBatchSize)
	}
}
