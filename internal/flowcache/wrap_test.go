package flowcache

import (
	"math"
	"testing"

	"repro/internal/rules"
)

// TestAdvanceEpochWraparound pins the wrap-safety of the epoch gate.
// Entries are compared to the current epoch with equality, so after the
// uint32 counter wraps back to a value an old slot was tagged with, that
// slot would look fresh again and serve a decision staled 2^32
// invalidations earlier. The fix invalidates the whole cache once per
// wrap; this test fast-forwards the counter to just below the wrap point
// and crosses it.
func TestAdvanceEpochWraparound(t *testing.T) {
	slow := &switchable{answer: 1}
	cache, err := New(slow, 64)
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: rules.ProtoTCP}

	// Cache h at epoch 0, then stale it once the normal way.
	if got := cache.Classify(h); got != 1 {
		t.Fatalf("Classify = %d, want 1", got)
	}
	cache.AdvanceEpoch()

	// Fast-forward to the last epoch before wraparound and cross it. The
	// entry cached above is tagged epoch 0 — exactly the value the counter
	// wraps back to.
	cache.epoch = math.MaxUint32
	cache.AdvanceEpoch()
	if cache.epoch != 0 {
		t.Fatalf("epoch after wrap = %d, want 0", cache.epoch)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("Len after wrap = %d, want 0 (wrap must invalidate)", n)
	}

	// The rule set "changed" 2^32 invalidations ago; the stale slot must
	// not resurface as a hit.
	slow.answer = 2
	if got := cache.Classify(h); got != 2 {
		t.Fatalf("Classify after epoch wrap = %d, want 2 (stale pre-wrap entry served)", got)
	}
}

// TestAdvanceEpochNoSpuriousInvalidate confirms the wrap guard does not
// fire on ordinary advances: staled slots keep their index entries so the
// next packet of each flow refreshes its slot in place (no O(capacity)
// clear per churn event).
func TestAdvanceEpochNoSpuriousInvalidate(t *testing.T) {
	slow := &switchable{answer: 1}
	cache, err := New(slow, 64)
	if err != nil {
		t.Fatal(err)
	}
	h := rules.Header{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: rules.ProtoUDP}
	cache.Classify(h)
	cache.AdvanceEpoch()
	if n := cache.Len(); n != 1 {
		t.Fatalf("Len after ordinary advance = %d, want 1 (slot retained for in-place refresh)", n)
	}
}
