package main

import "testing"

// The kernel must be the same work on every run: one cycle through the
// whole table, so that no start point falls into a short loop that fits a
// smaller cache.
func TestCalibratorChasesOneCycle(t *testing.T) {
	c := newCalibrator()
	at, steps := c.next[0], 1
	for ; at != 0 && steps <= calTableLen; steps++ {
		at = c.next[at]
	}
	if steps != calTableLen {
		t.Errorf("the chase returns to its start after %d steps, want the whole table: %d", steps, calTableLen)
	}
	if idx := c.hostIndex(); !(idx > 0) {
		t.Errorf("host index %v", idx)
	}
}

func TestWindowsCutsARunIntoBlocks(t *testing.T) {
	for _, tc := range []struct {
		workload string
		seconds  float64
		blocks   int
	}{
		{"mem_uniform", 16, 16},
		{"udp_open", 0.4, 1},
		{"churn", 16, 2},
	} {
		blocks, o := windows(findWorkload(tc.workload), tc.seconds)
		if blocks != tc.blocks {
			t.Errorf("%s for %v s: %d blocks, want %d", tc.workload, tc.seconds, blocks, tc.blocks)
		}
		if got := o.timed.Seconds() * float64(blocks); got < 0.999*tc.seconds || got > 1.001*tc.seconds {
			t.Errorf("%s: blocks measure %v s in all, want %v", tc.workload, got, tc.seconds)
		}
	}
}
