package flowcache

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/rules"
)

// versioned is a slow path whose verdict is a function of the header and
// of a version the test bumps at every AdvanceEpoch / Invalidate: a
// verdict cached under an older version is recognisably stale. It records
// every header it is asked about, so the test knows which packets missed.
type versioned struct {
	version int
	asked   []rules.Header
}

func (v *versioned) verdict(h rules.Header) int {
	return int(h.DstIP)<<14 | v.version&(1<<14-1)
}

func (v *versioned) Classify(h rules.Header) int {
	v.asked = append(v.asked, h)
	return v.verdict(h)
}

func (v *versioned) ClassifyBatch(hs []rules.Header, out []int) {
	for i, h := range hs {
		out[i] = v.Classify(h)
	}
}

// modelFlow is flow id's header; id 0 is the all-zero 5-tuple, the one a
// zeroed table entry would match if emptiness were read from the key.
func modelFlow(id int) rules.Header {
	if id == 0 {
		return rules.Header{}
	}
	return rules.Header{SrcIP: uint32(id) * 2654435761, DstIP: uint32(id), SrcPort: uint16(id), DstPort: 80, Proto: rules.ProtoTCP}
}

// lruModel is exact LRU over at most n flows, most recent last.
type lruModel struct {
	n     int
	flows []rules.Header
}

func (m *lruModel) touch(h rules.Header) bool {
	i := slices.Index(m.flows, h)
	if i < 0 {
		return false
	}
	m.flows = append(slices.Delete(m.flows, i, i+1), h)
	return true
}

func (m *lruModel) insert(h rules.Header) {
	if m.touch(h) {
		return
	}
	if len(m.flows) == m.n {
		m.flows = slices.Delete(m.flows, 0, 1)
	}
	m.flows = append(m.flows, h)
}

// runModel interprets ops as a sequence over {Classify, ClassifyBatch,
// AdvanceEpoch, Invalidate} and checks the cache against two references:
// seen, the flows offered since the last invalidation (a hit outside it is
// a stale or phantom entry), and — when the cache is a single set, where
// replacement is exact LRU — an LRU list that predicts every hit and miss.
func runModel(t *testing.T, capacity int, ops []byte) *Cache {
	t.Helper()
	slow := &versioned{}
	cache, err := New(slow, capacity)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[rules.Header]bool{}
	var lru *lruModel
	if capacity < 2*setWays {
		lru = &lruModel{n: min(capacity, setWays)}
	}
	var offered uint64
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// Half the draws come from 32 hot flows (hits, in-batch duplicates),
	// half from 2^16 (evictions in every table size).
	flow := func() rules.Header {
		hi, lo := next(), next()
		if hi&1 == 0 {
			return modelFlow(lo & 31)
		}
		return modelFlow(hi<<8 | lo)
	}
	// check verifies one probe pass (a Classify, or a whole ClassifyBatch)
	// after the fact: hs were offered, out came back, slow.asked holds the
	// packets that missed.
	check := func(hs []rules.Header, out []int) {
		offered += uint64(len(hs))
		missed := map[rules.Header]int{}
		for _, h := range slow.asked {
			missed[h]++
		}
		var wantMiss []rules.Header
		for i, h := range hs {
			if out[i] != slow.verdict(h) {
				t.Fatalf("capacity %d: %v answered %d, slow path says %d at version %d", capacity, h, out[i], slow.verdict(h), slow.version)
			}
			if missed[h] > 0 {
				missed[h]--
			} else if !seen[h] {
				t.Fatalf("capacity %d: %v hit without being offered in this epoch", capacity, h)
			}
			if lru != nil && !lru.touch(h) {
				wantMiss = append(wantMiss, h)
			}
		}
		if lru != nil && !slices.Equal(wantMiss, slow.asked) {
			t.Fatalf("capacity %d: missed %v, exact LRU misses %v", capacity, slow.asked, wantMiss)
		}
		for _, h := range hs {
			seen[h] = true
		}
		for _, h := range wantMiss {
			lru.insert(h)
		}
		slow.asked = slow.asked[:0]
	}
	out := make([]int, 16)
	for len(ops) > 0 {
		switch op := next() % 16; {
		case op < 9:
			h := flow()
			check([]rules.Header{h}, []int{cache.Classify(h)})
		case op < 14:
			hs := make([]rules.Header, 1+next()%16)
			for i := range hs {
				hs[i] = flow()
			}
			cache.ClassifyBatch(hs, out)
			check(hs, out)
		default:
			if op == 14 {
				cache.AdvanceEpoch()
			} else {
				cache.Invalidate()
				if cache.Len() != 0 {
					t.Fatalf("capacity %d: Len %d after Invalidate", capacity, cache.Len())
				}
			}
			slow.version++
			clear(seen)
			if lru != nil {
				lru.flows = lru.flows[:0]
			}
		}
		if cache.Len() > capacity {
			t.Fatalf("capacity %d: Len %d", capacity, cache.Len())
		}
	}
	if hits, misses := cache.Stats(); hits+misses != offered {
		t.Fatalf("capacity %d: %d hits + %d misses, %d packets offered", capacity, hits, misses, offered)
	}
	return cache
}

var modelCapacities = []int{1, 2, 7, 8, 9, 64, 4096}

func TestFlowCacheModel(t *testing.T) {
	for _, capacity := range modelCapacities {
		ops := make([]byte, 1<<18)
		rand.New(rand.NewSource(int64(capacity))).Read(ops)
		cache := runModel(t, capacity, ops)

		// Warmed steady state: hits, evicting misses, duplicate misses and
		// epoch advances all run without allocating.
		hs := make([]rules.Header, 64)
		for i := range hs {
			hs[i] = modelFlow(i / 2 * 1000)
		}
		out := make([]int, len(hs))
		cache.ClassifyBatch(hs, out)
		restore := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(50, func() {
			cache.ClassifyBatch(hs, out)
			cache.Classify(hs[1])
			cache.AdvanceEpoch()
		})
		debug.SetGCPercent(restore)
		if allocs != 0 {
			t.Errorf("capacity %d: warmed cache allocates %.1f/op, want 0", capacity, allocs)
		}
	}
}

func FuzzFlowCacheModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})                                       // the zero 5-tuple, twice
	f.Add([]byte{0, 1, 7, 0, 1, 7, 14, 0, 1, 7, 15, 0, 1, 7})             // hit, epoch, miss, invalidate, miss
	f.Add([]byte{9, 3, 0, 5, 0, 5, 0, 5, 0, 5, 9, 1, 0, 5, 0, 5})         // duplicate misses in one batch, then hits
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 3, 0, 0, 1, 0, 0, 2})   // LRU order at capacity 2
	f.Add([]byte{0, 0, 1, 14, 0, 0, 2, 0, 0, 3, 0, 0, 1, 15, 0, 0, 1})    // stale way reused before a fresh one
	f.Add([]byte{13, 15, 1, 1, 3, 2, 5, 3, 7, 4, 9, 5, 11, 6, 13, 7, 15}) // a batch of cold flows
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, capacity := range modelCapacities {
			runModel(t, capacity, ops)
		}
	})
}
