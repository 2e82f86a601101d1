package engine

import (
	"runtime"
	"testing"
)

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
