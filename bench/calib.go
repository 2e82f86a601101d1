package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on a few vCPUs of a shared host, and the speed of
// those vCPUs moves with what the neighbours do: with unchanged code and
// nothing else running in the VM, mem_uniform has read anywhere between
// 6.4 and 10 Mpps over consecutive 20 s windows, CPU time per packet
// rising with wall time. The movement is slow — minutes — so no window
// the driver can afford averages it out, and it is no property of the
// code under test. The in-memory workloads are CPU-bound from end to end,
// so their timings move one for one with the speed of the cores; they are
// therefore reported at the speed of a reference host: a fixed kernel of
// the benchmark's own is timed before and after every block of the window
// (hostIndex), and the block's timings are scaled by it. Over the same
// five minutes of a busy host, 20 s windows of mem_uniform spread
// (inter-quartile range over median) 10 % raw and 3.5 % scaled.

const (
	calTableLen = 1 << 16 // 256 KB of uint32: the kernel lives in L2, as a tree's hot levels do
	calSteps    = 1 << 21 // dependent loads per core per measurement, ~10 ms
	// refCalNs is what one step costs on the sandbox when it is left alone.
	// It only fixes the scale: a host that runs the kernel at this speed
	// reports its raw numbers.
	refCalNs = 4.8
)

// calibrator holds the kernel: a pointer chase around one cycle through
// the table, with a little arithmetic on every step.
type calibrator struct {
	next []uint32
	sink []uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{next: make([]uint32, calTableLen), sink: make([]uint32, runtime.GOMAXPROCS(0))}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	// Sattolo's shuffle from a fixed xorshift stream: a single cycle, the
	// same on every run, so the kernel is always the same work.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(c.next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c
}

// hostIndex runs the kernel on every core at once, as the workloads do,
// and returns how much slower than the reference host a step was: 1.25
// means the cores are giving four fifths of their speed.
func (c *calibrator) hostIndex() float64 {
	workers := len(c.sink)
	var wg sync.WaitGroup
	var ready atomic.Int32
	ns := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Start together: a core whose sibling idles is a faster core.
			ready.Add(1)
			for ready.Load() < int32(workers) {
				runtime.Gosched()
			}
			at := uint32(w * (calTableLen / workers))
			var acc uint32
			start := time.Now()
			for i := 0; i < calSteps; i++ {
				at = c.next[at]
				acc = acc*31 + at>>3
			}
			ns[w] = float64(time.Since(start)) / calSteps
			c.sink[w] = acc + at
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range ns {
		sum += v
	}
	return sum / float64(workers) / refCalNs
}
