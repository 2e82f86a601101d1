package buildgov_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/expcuts"
	"repro/internal/rulegen"
)

func TestScaledBudgetShape(t *testing.T) {
	small := buildgov.ScaledBudget(1000)
	if small.MaxHeapBytes != 64<<20 {
		t.Errorf("1k floor: MaxHeapBytes = %d, want 64MiB", small.MaxHeapBytes)
	}
	mid := buildgov.ScaledBudget(100000)
	if mid.MaxHeapBytes != 100000*4096 {
		t.Errorf("100k: MaxHeapBytes = %d, want 4KiB/rule", mid.MaxHeapBytes)
	}
	big := buildgov.ScaledBudget(1000000)
	if big.MaxHeapBytes != 512<<20 {
		t.Errorf("1M cap: MaxHeapBytes = %d, want 512MiB", big.MaxHeapBytes)
	}
	if big.Timeout != 52*time.Second || mid.Timeout != 7*time.Second {
		t.Errorf("timeouts: 1M=%v 100k=%v, want 52s/7s", big.Timeout, mid.Timeout)
	}
	if mid.MaxNodes != 8*100000+65536 || mid.MaxMemoEntries != 4*100000+65536 {
		t.Errorf("100k: nodes=%d memo=%d", mid.MaxNodes, mid.MaxMemoEntries)
	}
}

// TestEstimateAccuracyAtScale holds the governor's heap-byte estimate to
// the *measured* peak heap of real large-set decision-tree builds. The
// per-node constants were calibrated on ≤2k-rule sets and drifted to ~2×
// under actual peak at 10k–100k rules — trips fired after the blowup, not
// before. The test lets an ACL-family ExpCuts build run for a fixed slice
// of wall clock (these sets are exactly the overlap shape that blows trees
// up, and one second is well short of the 100k build's ≈ 2 s, so the build
// trips its deadline rather than finishing), polls
// HeapAlloc throughout, and requires estimate and measurement to agree
// within a band either way. Ratio-based on purpose: wall-clock slices
// and race-detector slowdowns change how far the build gets, but estimate
// and actual accrue together. HeapAlloc includes not-yet-collected
// garbage, which the governor rightly does not charge for, so the test
// pins GC pacing tight (GCPercent 20) to keep the measured peak close to
// live bytes and still allows the under-count direction extra headroom:
// under CPU contention a deadline-bounded build accrues little accounted
// state while transient build garbage keeps HeapAlloc up.
func TestEstimateAccuracyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tree builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	for _, size := range []int{10000, 100000} {
		rs, err := rulegen.Generate(rulegen.LargeForSize(size))
		if err != nil {
			t.Fatalf("rulegen(%d): %v", size, err)
		}
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)

		var peak atomic.Uint64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak.Load() {
					peak.Store(m.HeapAlloc)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()

		budget := &buildgov.Budget{Timeout: time.Second, MaxHeapBytes: 2 << 30}
		_, buildErr := expcuts.NewCtx(context.Background(), rs, expcuts.Config{}, budget)
		close(stop)
		<-done

		// Either outcome is fine for the measurement; what must hold is
		// that a trip, when it happens, is the deadline (the heap limit
		// here is deliberately unreachable) and the accounting tracked
		// reality while the build ran.
		if buildErr != nil && !errors.Is(buildErr, buildgov.ErrBudgetExceeded) {
			t.Fatalf("size=%d: unexpected build error: %v", size, buildErr)
		}
		est := peakEstimate(budget, buildErr)
		if est == 0 {
			t.Fatalf("size=%d: no heap estimate recorded (build err: %v)", size, buildErr)
		}
		actual := int64(peak.Load() - m0.HeapAlloc)
		if actual <= 0 {
			t.Fatalf("size=%d: no measurable heap growth", size)
		}
		if est*5 < actual {
			t.Errorf("size=%d: estimate %dMB under-counts measured peak %dMB by >5× — trips would fire after the blowup",
				size, est>>20, actual>>20)
		}
		if actual*3 < est {
			t.Errorf("size=%d: estimate %dMB over-counts measured peak %dMB by >3× — budgets would trip healthy builds",
				size, est>>20, actual>>20)
		}
		t.Logf("size=%d: estimate %dMB, measured peak %dMB", size, est>>20, actual>>20)
	}
}

// peakEstimate extracts the governor's heap-byte figure from the trip
// error carried by a deadline-bounded build.
func peakEstimate(_ *buildgov.Budget, err error) int64 {
	var be *buildgov.BudgetError
	if errors.As(err, &be) {
		return be.Stats.HeapBytes
	}
	return 0
}
