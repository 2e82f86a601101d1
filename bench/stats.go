package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is one end of a timed window: when it was crossed, how many units
// of work had completed, and the CPU time charged to the work.
type mark struct {
	at  time.Duration
	cum int64
	cpu time.Duration
}

// meter times one warm-up followed by one timed window. The goroutine
// that completes work calls tick with its cumulative count; an end of the
// window is recorded the first time tick sees the clock past it, stamped
// with the real time, so the rate is exact even when the end is noticed
// late. Not safe for concurrent use.
type meter struct {
	o     runOpts
	t0    time.Time
	marks []mark               // the window's start, then its end
	cpu   func() time.Duration // the CPU time charged to the work; cpuTime unless replaced
}

func newMeter(o runOpts) *meter {
	return &meter{o: o, t0: time.Now(), marks: make([]mark, 0, 2), cpu: cpuTime}
}

func (m *meter) tick(cum int64) { m.tickAt(time.Since(m.t0), cum) }

func (m *meter) tickAt(el time.Duration, cum int64) {
	switch len(m.marks) {
	case 0:
		if el < m.o.warm {
			return
		}
	case 1:
		if el < m.o.warm+m.o.timed {
			return
		}
	default:
		return
	}
	m.marks = append(m.marks, mark{at: el, cum: cum, cpu: m.cpu()})
}

// done reports whether the window has closed.
func (m *meter) done() bool { return len(m.marks) == 2 }

func (m *meter) warmed() bool { return len(m.marks) > 0 }

// rates is what a meter's window measured.
type rates struct {
	perSec       float64 // units per second
	units        int64
	cpuNsPerUnit float64
}

func (m *meter) rates() rates {
	if !m.done() {
		return rates{}
	}
	first, last := m.marks[0], m.marks[1]
	r := rates{units: last.cum - first.cum}
	r.perSec = float64(r.units) / (last.at - first.at).Seconds()
	if r.units > 0 {
		r.cpuNsPerUnit = float64(last.cpu-first.cpu) / float64(r.units)
	}
	return r
}

// latency summarises the latency samples of a window, in microseconds:
// the median, the tail the benchmark bounds (tailPct: p90, which repeats
// from run to run where p99 does not) and p99 for the record, with the
// sample count and how many samples lie beyond p99 (trust it at >= 10).
type latency struct {
	p50us, tailUs, p99us float64
	tailPct              float64
	samples              int
	beyondP99            int
}

func summarize(ns []float64, tailPct float64) latency {
	l := latency{tailPct: tailPct, samples: len(ns)}
	if len(ns) == 0 {
		return l
	}
	s := sortedCopy(ns)
	l.p50us = quantile(s, 0.5) / 1e3
	l.tailUs = quantile(s, tailPct/100) / 1e3
	l.p99us = quantile(s, 0.99) / 1e3
	l.beyondP99 = len(s) / 100
	return l
}

// fingerprint describes the host a number was taken on; it is printed
// with every output because every rate here is a property of host + code.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Network    string `json:"network"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		Network:    "loopback",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}
