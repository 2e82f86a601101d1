package flowcache

import (
	"container/list"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/expcuts"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// countingClassifier counts slow-path invocations.
type countingClassifier struct {
	inner interface {
		Classify(h rules.Header) int
	}
	calls int
}

func (c *countingClassifier) Classify(h rules.Header) int {
	c.calls++
	return c.inner.Classify(h)
}

func fixtures(t *testing.T) (*rules.RuleSet, *countingClassifier) {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 120, Seed: 601})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return rs, &countingClassifier{inner: tree}
}

func TestResultsUnchanged(t *testing.T) {
	rs, slow := fixtures(t)
	cache, err := New(slow, 256)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 3000, Seed: 602, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Repeat each header to create flows.
	for rep := 0; rep < 3; rep++ {
		for _, h := range tr.Headers[:500] {
			if got, want := cache.Classify(h), rs.Match(h); got != want {
				t.Fatalf("cached Classify(%v) = %d, oracle %d", h, got, want)
			}
		}
	}
}

func TestCacheShortCircuitsRepeats(t *testing.T) {
	_, slow := fixtures(t)
	cache, err := New(slow, 64)
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: rules.ProtoTCP}
	for i := 0; i < 100; i++ {
		cache.Classify(h)
	}
	if slow.calls != 1 {
		t.Errorf("slow path called %d times, want 1", slow.calls)
	}
	hits, misses := cache.Stats()
	if hits != 99 || misses != 1 {
		t.Errorf("hits/misses = %d/%d", hits, misses)
	}
	if cache.HitRate() < 0.98 {
		t.Errorf("hit rate = %v", cache.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	_, slow := fixtures(t)
	cache, err := New(slow, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := rules.Header{SrcIP: 1}
	b := rules.Header{SrcIP: 2}
	c := rules.Header{SrcIP: 3}
	cache.Classify(a) // cache: a
	cache.Classify(b) // cache: b a
	cache.Classify(a) // cache: a b (a refreshed)
	cache.Classify(c) // evicts b -> cache: c a
	if cache.Len() != 2 {
		t.Fatalf("Len = %d", cache.Len())
	}
	calls := slow.calls
	cache.Classify(a) // hit
	if slow.calls != calls {
		t.Error("a should still be cached")
	}
	cache.Classify(b) // miss (evicted)
	if slow.calls != calls+1 {
		t.Error("b should have been evicted")
	}
}

func TestInvalidate(t *testing.T) {
	_, slow := fixtures(t)
	cache, err := New(slow, 16)
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 9}
	cache.Classify(h)
	cache.Invalidate()
	if cache.Len() != 0 {
		t.Errorf("Len = %d after Invalidate", cache.Len())
	}
	calls := slow.calls
	cache.Classify(h)
	if slow.calls != calls+1 {
		t.Error("invalidated entry served from cache")
	}
}

func TestZipfTrafficHitRate(t *testing.T) {
	// Flow-level locality: a skewed flow popularity distribution must
	// produce a high hit rate with a modest cache — the premise of
	// flow-level processing on NPs.
	rs, slow := fixtures(t)
	cache, err := New(slow, 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 400, Seed: 603, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	flows := tr.Headers
	rng := rand.New(rand.NewSource(604))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(flows)-1))
	for i := 0; i < 50000; i++ {
		cache.Classify(flows[zipf.Uint64()])
	}
	if rate := cache.HitRate(); rate < 0.9 {
		t.Errorf("hit rate %.2f under Zipf traffic, want >= 0.9", rate)
	}
}

// TestZipfHitRateNearExactLRU pins what 8-way sets cost against the exact
// LRU they replaced: on a fixed Zipf(1.1) trace over 2^16 flows at capacity
// 4096, the hit rate stays within 0.01 of a full LRU list's.
func TestZipfHitRateNearExactLRU(t *testing.T) {
	const capacity, packets = 4096, 1 << 19
	cache, err := New(&switchable{}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(605)), 1.1, 1, 1<<16-1)
	recency := list.New() // front = most recent
	resident := map[uint64]*list.Element{}
	lruHits := 0
	for i := 0; i < packets; i++ {
		id := zipf.Uint64()
		cache.Classify(rules.Header{SrcIP: uint32(id) * 2654435761, DstIP: uint32(id), DstPort: 80, Proto: rules.ProtoTCP})
		if e, ok := resident[id]; ok {
			lruHits++
			recency.MoveToFront(e)
			continue
		}
		if recency.Len() == capacity {
			delete(resident, recency.Remove(recency.Back()).(uint64))
		}
		resident[id] = recency.PushFront(id)
	}
	exact := float64(lruHits) / packets
	if got := cache.HitRate(); got < exact-0.01 {
		t.Errorf("hit rate %.4f, exact LRU %.4f: associativity costs more than 0.01", got, exact)
	} else {
		t.Logf("hit rate %.4f, exact LRU %.4f", got, exact)
	}
}

// TestZeroHeaderMisses: emptiness is the tag, not the key. A zeroed way
// must not answer for the all-zero 5-tuple on a fresh cache (epoch 0 is a
// zeroed entry's epoch too), nor may the tuple's old verdict survive
// Invalidate or AdvanceEpoch — each time beside a cached neighbour with
// the zero tuple's own tag, the case an inexact tag match gets wrong.
func TestZeroHeaderMisses(t *testing.T) {
	slow := &switchable{answer: 5}
	cache, err := New(slow, 2)
	if err != nil {
		t.Fatal(err)
	}
	twin := rules.Header{SrcIP: 1}
	for cache.locate(twin).tag != cache.locate(rules.Header{}).tag {
		twin.SrcIP++
	}
	probe := func(when string) {
		t.Helper()
		cache.Classify(twin)
		slow.answer++
		calls := slow.calls
		if got := cache.Classify(rules.Header{}); got != slow.answer || slow.calls != calls+1 {
			t.Fatalf("%s: zero 5-tuple answered %d from the cache, slow path says %d", when, got, slow.answer)
		}
	}
	probe("fresh cache")
	cache.Invalidate()
	probe("after Invalidate")
	cache.AdvanceEpoch()
	probe("after AdvanceEpoch")
}

func TestCapacityValidation(t *testing.T) {
	_, slow := fixtures(t)
	if _, err := New(slow, 0); err == nil {
		t.Error("capacity 0 should fail")
	}
}

// TestCapacityOverflowRejected pins the capacity bound: a capacity
// beyond MaxCapacity would overflow the 32-bit set reduction (and try to
// allocate an absurd table), so New must refuse it with a typed
// *CapacityError instead of constructing a corrupt cache.
func TestCapacityOverflowRejected(t *testing.T) {
	_, slow := fixtures(t)
	over := MaxCapacity // runtime increment so the literal compiles on any int width
	over++
	maxInt := int(^uint(0) >> 1)
	for _, capacity := range []int{-1, 0, over, maxInt} {
		_, err := New(slow, capacity)
		if err == nil {
			t.Fatalf("capacity %d accepted, want *CapacityError", capacity)
		}
		var ce *CapacityError
		if !errors.As(err, &ce) {
			t.Fatalf("capacity %d: error %T (%v), want *CapacityError", capacity, err, err)
		}
		if ce.Capacity != capacity {
			t.Errorf("CapacityError.Capacity = %d, want %d", ce.Capacity, capacity)
		}
	}
	// The boundary value MaxCapacity itself is legal; constructing that
	// table would OOM the test host, so the first rejected value above
	// (MaxCapacity+1) is what pins the upper bound off-by-one.
}

// countingBatchClassifier also implements ClassifyBatch, counting
// sub-batch forwards.
type countingBatchClassifier struct {
	countingClassifier
	batchCalls   int
	batchPackets int
}

func (c *countingBatchClassifier) ClassifyBatch(hs []rules.Header, out []int) {
	c.batchCalls++
	c.batchPackets += len(hs)
	for i, h := range hs {
		out[i] = c.inner.Classify(h)
	}
}

func TestClassifyBatchMatchesSequential(t *testing.T) {
	rs, slowA := fixtures(t)
	_, slowB := fixtures(t)
	seq, err := New(slowA, 128)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := New(slowB, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 600, Seed: 605, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the trace so both caches see hits, misses and evictions.
	hs := append(append([]rules.Header{}, tr.Headers...), tr.Headers[:300]...)
	out := make([]int, 64)
	for lo := 0; lo < len(hs); lo += 64 {
		hi := min(lo+64, len(hs))
		bat.ClassifyBatch(hs[lo:hi], out[:hi-lo])
		for k, h := range hs[lo:hi] {
			if want := seq.Classify(h); out[k] != want {
				t.Fatalf("packet %d: batch %d, sequential %d", lo+k, out[k], want)
			}
		}
	}
	if bat.Len() != seq.Len() {
		t.Errorf("cache sizes diverged: batch %d, sequential %d", bat.Len(), seq.Len())
	}
}

// TestBatchForwardsMissesAsOneSubBatch pins the tentpole behavior: all of
// a batch's misses reach a batched slow path in a single ClassifyBatch
// call, not one call per miss.
func TestBatchForwardsMissesAsOneSubBatch(t *testing.T) {
	rs, counting := fixtures(t)
	slow := &countingBatchClassifier{countingClassifier: *counting}
	// 64 flows over 128 sets: no set is asked to hold more than its 8 ways
	// (at 256 flows of capacity this trace puts 9 in one set).
	cache, err := New(slow, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 64, Seed: 606, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 64)
	cache.ClassifyBatch(tr.Headers, out)
	if slow.batchCalls != 1 {
		t.Errorf("cold batch forwarded %d sub-batches, want 1", slow.batchCalls)
	}
	if slow.calls != 0 {
		t.Errorf("cold batch used per-packet slow path %d times, want 0", slow.calls)
	}
	// All flows cached now: no slow-path traffic at all.
	cache.ClassifyBatch(tr.Headers, out)
	if slow.batchCalls != 1 || slow.calls != 0 {
		t.Errorf("warm batch hit the slow path (batch calls %d, scalar calls %d)", slow.batchCalls, slow.calls)
	}
	hits, misses := cache.Stats()
	if misses != uint64(slow.batchPackets) {
		t.Errorf("misses %d != packets forwarded %d", misses, slow.batchPackets)
	}
	if hits != 64 {
		t.Errorf("hits = %d, want 64", hits)
	}
}

// TestBatchDuplicateMisses covers a flow appearing more than once in a
// single cold batch: every occurrence must get the right answer and the
// cache must end up with exactly one entry for it.
func TestBatchDuplicateMisses(t *testing.T) {
	_, slow := fixtures(t)
	cache, err := New(slow, 16)
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: rules.ProtoTCP}
	hs := []rules.Header{h, h, h, h}
	out := make([]int, len(hs))
	cache.ClassifyBatch(hs, out)
	want := slow.inner.Classify(h)
	for i, got := range out {
		if got != want {
			t.Errorf("occurrence %d: got %d, want %d", i, got, want)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("Len = %d, want 1", cache.Len())
	}
}

// TestBatchZeroAllocWarm is the flow cache's allocation regression gate:
// once every flow in the batch is cached, ClassifyBatch allocates nothing.
func TestBatchZeroAllocWarm(t *testing.T) {
	rs, slow := fixtures(t)
	cache, err := New(slow, 256)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 64, Seed: 607, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 64)
	cache.ClassifyBatch(tr.Headers, out) // warm: every flow cached

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(100, func() {
		cache.ClassifyBatch(tr.Headers, out)
	}); n != 0 {
		t.Fatalf("warm ClassifyBatch allocates %.2f times per op, want 0", n)
	}
}

// TestInsertZeroAllocAfterWarmup: evicting inserts overwrite a way of
// the key's set in place, so even a 100%-miss workload allocates nothing.
func TestInsertZeroAllocAfterWarmup(t *testing.T) {
	_, slow := fixtures(t)
	cache, err := New(slow, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 32 distinct flows through an 8-entry cache: every access evicts.
	flows := make([]rules.Header, 32)
	for i := range flows {
		flows[i] = rules.Header{SrcIP: uint32(i), SrcPort: 80, Proto: rules.ProtoTCP}
	}
	for _, h := range flows {
		cache.Classify(h)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		cache.Classify(flows[i%len(flows)])
		i++
	}); n != 0 {
		t.Fatalf("evicting Classify allocates %.2f times per op, want 0", n)
	}
}
