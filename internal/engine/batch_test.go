package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rules"
)

// countingBatcher implements rules.BatchClassifier and records how work
// arrived (atomically: it is called from every shard).
type countingBatcher struct {
	inner      rules.BatchClassifier
	batchCalls atomic.Int64
	batched    atomic.Int64 // headers classified through ClassifyBatch
	scalar     atomic.Int64
}

func (c *countingBatcher) Classify(h rules.Header) int {
	c.scalar.Add(1)
	return c.inner.Classify(h)
}

func (c *countingBatcher) ClassifyBatch(hs []rules.Header, out []int) {
	c.batchCalls.Add(1)
	c.batched.Add(int64(len(hs)))
	c.inner.ClassifyBatch(hs, out)
}

// TestBatchFastPathUsed proves the engine actually drives
// rules.BatchClassifier implementations through ClassifyBatch — with correct answers and no
// scalar calls at all on a clean run.
func TestBatchFastPathUsed(t *testing.T) {
	rs, tree, headers := fixtures(t, 4000)
	cb := &countingBatcher{inner: tree}
	st, err := Run(cb, Config{Shards: 4, PreserveOrder: true, BatchSize: 64}, headers, func(r Result) {
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
	if cb.batchCalls.Load() == 0 {
		t.Error("BatchClassifier was never used")
	}
	if n := cb.scalar.Load(); n != 0 {
		t.Errorf("engine fell back to %d scalar Classify calls on a clean run", n)
	}
}

// TestBatchSizesAgree runs the same trace at several batch sizes (including
// the per-packet baseline) and requires identical emission: same order,
// same matches, same stats totals.
func TestBatchSizesAgree(t *testing.T) {
	_, tree, headers := fixtures(t, 6000)
	collect := func(batch int) []int {
		matches := make([]int, 0, len(headers))
		var next uint64
		st, err := Run(tree, Config{Shards: 4, PreserveOrder: true, BatchSize: batch}, headers, func(r Result) {
			if r.Seq != next {
				t.Fatalf("batch %d: out of order, seq %d want %d", batch, r.Seq, next)
			}
			next++
			matches = append(matches, r.Match)
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if st.Packets != len(headers) {
			t.Fatalf("batch %d: packets = %d", batch, st.Packets)
		}
		return matches
	}
	want := collect(1)
	for _, batch := range []int{3, 64, 1024} {
		got := collect(batch)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: packet %d match %d, per-packet baseline %d", batch, i, got[i], want[i])
			}
		}
	}
}

// batchPanicky panics — in both paths — on headers with a marker source
// IP. ClassifyBatch panics as soon as it reaches a marked packet, like a
// real classifier bug would, so the engine must re-run the batch
// per-packet to attribute the panic.
type batchPanicky struct {
	inner rules.BatchClassifier
}

const poisonIP = 0xDEADBEEF

func (p *batchPanicky) Classify(h rules.Header) int {
	if h.SrcIP == poisonIP {
		panic("poisoned header")
	}
	return p.inner.Classify(h)
}

func (p *batchPanicky) ClassifyBatch(hs []rules.Header, out []int) {
	for i, h := range hs {
		out[i] = p.Classify(h)
	}
}

// TestBatchPanicAttributedPerPacket is batch-granular panic isolation: a
// panic inside ClassifyBatch must cost exactly the poisoned packets their
// result — every innocent packet in the same batch still classifies, order
// is preserved, and Stats.Panics counts the poisoned packets exactly.
func TestBatchPanicAttributedPerPacket(t *testing.T) {
	rs, tree, headers := fixtures(t, 5000)
	poisoned := map[uint64]bool{}
	for i := 100; i < len(headers); i += 997 {
		headers[i].SrcIP = poisonIP
		poisoned[uint64(i)] = true
	}
	cl := &batchPanicky{inner: tree}
	base := runtime.NumGoroutine()
	var next uint64
	bad := 0
	st, err := Run(cl, Config{Shards: 4, PreserveOrder: true, BatchSize: 64}, headers, func(r Result) {
		if r.Seq != next {
			t.Fatalf("out of order: seq %d, want %d", r.Seq, next)
		}
		next++
		if poisoned[r.Seq] {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("poisoned packet %d: err = %v, want PanicError", r.Seq, r.Err)
			}
			bad++
			return
		}
		if r.Err != nil {
			t.Fatalf("innocent packet %d lost to its batch's panic: %v", r.Seq, r.Err)
		}
		if want := rs.Match(r.Header); r.Match != want {
			t.Fatalf("packet %d: match %d, oracle %d", r.Seq, r.Match, want)
		}
	})
	if err == nil {
		t.Fatal("a run with contained panics must return an error")
	}
	waitNoLeaks(t, base)
	if bad != len(poisoned) || st.Panics != bad {
		t.Errorf("panics: %d poisoned, %d emitted with PanicError, stats %d", len(poisoned), bad, st.Panics)
	}
	if st.Packets+st.Panics != len(headers) {
		t.Errorf("accounting: %d + %d != %d", st.Packets, st.Panics, len(headers))
	}
}

// TestBatchShedAccounting: shedding happens at batch granularity, but the
// per-packet invariant must hold exactly — every packet is either
// classified or shed, never both, never neither.
func TestBatchShedAccounting(t *testing.T) {
	_, tree, headers := fixtures(t, 4096)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 30 * time.Microsecond}
	base := runtime.NumGoroutine()
	shedSeen, okSeen := 0, 0
	st, err := Run(slow, Config{Shards: 1, QueueDepth: 1, PreserveOrder: true, Overload: OverloadShed, BatchSize: 16},
		headers, func(r Result) {
			if errors.Is(r.Err, ErrShed) {
				shedSeen++
			} else if r.Err == nil {
				okSeen++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	waitNoLeaks(t, base)
	if st.Shed == 0 {
		t.Fatal("overloaded run shed nothing")
	}
	if st.Shed != shedSeen || st.Packets != okSeen {
		t.Errorf("stats/emission mismatch: %+v vs %d shed, %d ok", st, shedSeen, okSeen)
	}
	if st.Packets+st.Shed != len(headers) {
		t.Errorf("accounting: %d + %d != %d", st.Packets, st.Shed, len(headers))
	}
}

// TestOddBatchTail: input lengths that are not a multiple of BatchSize
// leave a short final batch; nothing may be lost or duplicated.
func TestOddBatchTail(t *testing.T) {
	_, tree, headers := fixtures(t, 1000)
	for _, n := range []int{1, 63, 64, 65, 999} {
		seen := make([]bool, n)
		st, err := Run(tree, Config{Shards: 3, PreserveOrder: true, BatchSize: 64}, headers[:n], func(r Result) {
			if seen[r.Seq] {
				t.Fatalf("n=%d: duplicate seq %d", n, r.Seq)
			}
			seen[r.Seq] = true
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.Packets != n {
			t.Fatalf("n=%d: packets = %d", n, st.Packets)
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d: seq %d never emitted", n, i)
			}
		}
	}
}

// TestBatchSizeValidation pins the BatchSize bounds.
func TestBatchSizeValidation(t *testing.T) {
	_, tree, headers := fixtures(t, 10)
	if _, err := Run(tree, Config{BatchSize: -1}, headers, func(Result) {}); err == nil {
		t.Error("negative batch size should fail")
	}
	if _, err := Run(tree, Config{BatchSize: MaxBatchSize + 1}, headers, func(Result) {}); err == nil {
		t.Error("oversized batch size should fail")
	}
}
