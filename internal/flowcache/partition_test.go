package flowcache

import (
	"testing"

	"repro/internal/rules"
)

func hdr(src uint32) rules.Header {
	return rules.Header{SrcIP: src, DstIP: 1, SrcPort: 2, DstPort: 3, Proto: rules.ProtoTCP}
}

// TestPartitionIsolation: identical 5-tuples under different tenants must
// never share entries, and one tenant's epoch advance must not stale
// another's partition.
func TestPartitionIsolation(t *testing.T) {
	p, err := NewPartitioned(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	sa := &switchable{answer: 1}
	sb := &switchable{answer: 2}
	h := hdr(9)

	ca, _ := p.Partition(1, sa)
	cb, _ := p.Partition(2, sb)
	if got := ca.Classify(h); got != 1 {
		t.Fatalf("tenant 1 Classify = %d, want 1", got)
	}
	if got := cb.Classify(h); got != 2 {
		t.Fatalf("tenant 2 Classify = %d, want 2 (entry leaked across tenants)", got)
	}

	// Tenant 1's rules change; only tenant 1's partition goes stale.
	sa.answer = 11
	ca.AdvanceEpoch()
	sbCalls := sb.calls
	if got := ca.Classify(h); got != 11 {
		t.Fatalf("tenant 1 after own epoch advance = %d, want 11", got)
	}
	if got := cb.Classify(h); got != 2 {
		t.Fatalf("tenant 2 = %d, want 2", got)
	}
	if sb.calls != sbCalls {
		t.Fatalf("tenant 2 slow path re-consulted after tenant 1's invalidation")
	}
}

// TestPartitionEviction: at the tenant bound, the least recently served
// partition is reclaimed, OnEvict fires with its ID, and the evictee
// comes back cold.
func TestPartitionEviction(t *testing.T) {
	p, err := NewPartitioned(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []uint32
	p.OnEvict = func(id uint32) { evicted = append(evicted, id) }
	slow := &switchable{answer: 7}

	c1, _ := p.Partition(1, slow)
	c1.Classify(hdr(1))
	p.Partition(2, slow)
	p.Partition(1, slow) // bump 1: tenant 2 is now oldest

	if _, err := p.Partition(3, slow); err != nil {
		t.Fatal(err)
	}
	if p.Tenants() != 2 || p.Evictions() != 1 {
		t.Fatalf("tenants=%d evictions=%d, want 2/1", p.Tenants(), p.Evictions())
	}
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}

	// Tenant 1 survived with its working set intact.
	calls := slow.calls
	c1b, _ := p.Partition(1, slow)
	if c1b.Classify(hdr(1)); slow.calls != calls {
		t.Fatal("survivor's cached flow re-took the slow path")
	}

	// The evictee rebuilds cold (and evicts the now-oldest tenant 3).
	c2, _ := p.Partition(2, slow)
	if c2.Len() != 0 {
		t.Fatalf("re-admitted evictee Len = %d, want 0", c2.Len())
	}
}

// TestPartitionDrop: Drop discards without the eviction callback.
func TestPartitionDrop(t *testing.T) {
	p, err := NewPartitioned(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	p.OnEvict = func(uint32) { fired = true }
	slow := &switchable{answer: 3}
	p.Partition(5, slow)
	p.Drop(5)
	if p.Tenants() != 0 || fired {
		t.Fatalf("tenants=%d fired=%v after Drop, want 0/false", p.Tenants(), fired)
	}
}

// TestPartitionStatsCumulative: Stats keeps the counts of partitions that
// were evicted or dropped — an exporter diffing successive readings must
// never see the totals fall.
func TestPartitionStatsCumulative(t *testing.T) {
	p, err := NewPartitioned(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := &switchable{answer: 1}
	serve := func(tenant uint32) {
		c, err := p.Partition(tenant, slow)
		if err != nil {
			t.Fatal(err)
		}
		c.Classify(hdr(1)) // miss
		c.Classify(hdr(1)) // hit
	}
	serve(1)
	serve(2) // evicts tenant 1
	p.Drop(2)
	p.Drop(2) // already gone: counted once
	serve(3)
	if hits, misses := p.Stats(); hits != 3 || misses != 3 {
		t.Fatalf("Stats = %d hits / %d misses after an eviction and a drop, want 3/3", hits, misses)
	}
}

// TestPartitionedRejectsBadBounds mirrors New's capacity validation.
func TestPartitionedRejectsBadBounds(t *testing.T) {
	if _, err := NewPartitioned(0, 4); err == nil {
		t.Error("perTenant 0 accepted")
	}
	if _, err := NewPartitioned(16, 0); err == nil {
		t.Error("maxTenants 0 accepted")
	}
}

// TestPartitionSteadyStateAllocs: the resident-tenant Partition call is
// on the per-batch hot path and must not allocate.
func TestPartitionSteadyStateAllocs(t *testing.T) {
	p, err := NewPartitioned(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	slow := &switchable{answer: 1}
	p.Partition(1, slow)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := p.Partition(1, slow); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Partition steady state allocates %.1f/op, want 0", allocs)
	}
}
