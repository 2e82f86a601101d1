// Package tss implements a priority-aware tuple-space side table — the
// delta layer that absorbs live rule churn without rebuilding the serving
// decision tree. Tuple space search (the TSS family the paper's related
// work explores for NP routers) groups rules by their (source prefix
// length, destination prefix length) tuple: within one tuple, a rule is
// identified by its masked addresses, so lookup is one hash probe per
// tuple and insert/delete are O(1) hash-table operations. That update
// cost is the whole point here: decision trees buy lookup speed with
// build time, tuple spaces buy update speed with a bounded set of probes,
// and the delta layer pairs them — the tree serves the stable bulk, the
// tuple table serves the churn, and a background compaction folds the
// table back into the next tree build.
//
// Storage is a slab: table entries live in a preallocated-and-grown array
// linked by int32 indices, with a free list for O(1) reuse, so steady-state
// insert/delete performs no per-entry allocation beyond slab growth and
// lookups chase int32 links, not heap pointers.
package tss

import (
	"fmt"

	"repro/internal/rules"
)

// none marks an empty link or absent slot.
const none = int32(-1)

// entry is one slab slot: a delta-inserted rule, its tuple-space key, and
// its current priority position in the combined rule list.
type entry struct {
	rule rules.Rule
	key  uint64 // maskedSrc<<32 | maskedDst under the tuple's masks
	pos  int32  // current combined-list index; none when the slot is free
	next int32  // bucket chain link (key collisions impossible: map-keyed)
	tup  int32  // owning tuple index
}

// tuple is one (srcLen, dstLen) hash table: masked address pair -> chain
// of entries sharing that exact masked pair.
type tuple struct {
	srcLen, dstLen uint8
	buckets        map[uint64]int32 // key -> chain head in the slab
	live           int              // live entries in this tuple
}

// Table is the tuple-space side table. It is a mutable structure with no
// internal locking: the delta layer only ever mutates private clones and
// publishes them immutably (see Delta), mirroring how every other
// structure in this repository separates build-side mutation from
// lock-free serving.
type Table struct {
	tuples   []tuple
	tupIndex map[uint16]int32 // srcLen<<8|dstLen -> tuples index
	slab     []entry
	free     int32 // free-list head threaded through entry.next
	liveN    int
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{tupIndex: make(map[uint16]int32), free: none}
}

func maskOfLen(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(l))
}

// keyOf computes a rule's tuple-space key: both addresses masked to their
// prefix lengths, packed into one uint64. Two rules in the same tuple
// share a key exactly when they constrain the same address pair region,
// and a header masked the same way produces the same key exactly when it
// matches both prefixes — so the per-entry residue check is ports and
// protocol only.
func keyOf(srcAddr uint32, srcLen uint8, dstAddr uint32, dstLen uint8) uint64 {
	return uint64(srcAddr&maskOfLen(srcLen))<<32 | uint64(dstAddr&maskOfLen(dstLen))
}

// Insert adds rule r at combined-list position pos and returns its slab
// handle. O(1): one tuple lookup, one bucket-chain push. The caller owns
// position maintenance (ShiftUp/ShiftDown) around it.
func (t *Table) Insert(r rules.Rule, pos int32) int32 {
	tk := uint16(r.SrcIP.Len)<<8 | uint16(r.DstIP.Len)
	ti, ok := t.tupIndex[tk]
	if !ok {
		ti = int32(len(t.tuples))
		t.tuples = append(t.tuples, tuple{
			srcLen: r.SrcIP.Len, dstLen: r.DstIP.Len,
			buckets: make(map[uint64]int32),
		})
		t.tupIndex[tk] = ti
	}
	key := keyOf(r.SrcIP.Addr, r.SrcIP.Len, r.DstIP.Addr, r.DstIP.Len)
	var i int32
	if t.free != none {
		i = t.free
		t.free = t.slab[i].next
	} else {
		i = int32(len(t.slab))
		t.slab = append(t.slab, entry{})
	}
	tp := &t.tuples[ti]
	head, ok := tp.buckets[key]
	if !ok {
		head = none
	}
	t.slab[i] = entry{rule: r, key: key, pos: pos, next: head, tup: ti}
	tp.buckets[key] = i
	tp.live++
	t.liveN++
	return i
}

// Delete removes the entry behind handle. O(chain) within one bucket,
// which is O(1) for any realistic key distribution.
func (t *Table) Delete(handle int32) {
	e := &t.slab[handle]
	if e.pos == none {
		panic(fmt.Sprintf("tss: double delete of handle %d", handle))
	}
	tp := &t.tuples[e.tup]
	// Unlink from the bucket chain.
	if head := tp.buckets[e.key]; head == handle {
		if e.next == none {
			delete(tp.buckets, e.key)
		} else {
			tp.buckets[e.key] = e.next
		}
	} else {
		for j := head; j != none; j = t.slab[j].next {
			if t.slab[j].next == handle {
				t.slab[j].next = e.next
				break
			}
		}
	}
	tp.live--
	t.liveN--
	e.pos = none
	e.rule = rules.Rule{}
	e.next = t.free
	t.free = handle
}

// Pos returns the combined-list position stored for handle (none when
// freed). Exposed for the delta layer's bookkeeping assertions.
func (t *Table) Pos(handle int32) int32 {
	return t.slab[handle].pos
}

// ShiftUp increments the stored position of every live entry at or above
// pos — the bookkeeping for an insert at pos into the combined list.
// O(slab): a linear int32 sweep, the same cost class as the delta layer's
// remap sweep and far below any rebuild.
func (t *Table) ShiftUp(pos int32) {
	for i := range t.slab {
		if t.slab[i].pos != none && t.slab[i].pos >= pos {
			t.slab[i].pos++
		}
	}
}

// ShiftDown decrements the stored position of every live entry above pos
// — the bookkeeping for a delete at pos from the combined list.
func (t *Table) ShiftDown(pos int32) {
	for i := range t.slab {
		if t.slab[i].pos != none && t.slab[i].pos > pos {
			t.slab[i].pos--
		}
	}
}

// Lookup returns the minimum combined-list position among live entries
// matching h (the highest-priority delta rule), or -1 when none match.
// One hash probe per tuple; entries in a matched bucket need only their
// port ranges and protocol checked (the key equality already proved both
// prefixes). Allocation-free.
func (t *Table) Lookup(h rules.Header) int32 {
	best := none
	for ti := range t.tuples {
		tp := &t.tuples[ti]
		if tp.live == 0 {
			continue
		}
		key := keyOf(h.SrcIP, tp.srcLen, h.DstIP, tp.dstLen)
		i, ok := tp.buckets[key]
		if !ok {
			continue
		}
		for ; i != none; i = t.slab[i].next {
			e := &t.slab[i]
			if best != none && e.pos >= best {
				continue
			}
			if e.rule.SrcPort.Matches(h.SrcPort) &&
				e.rule.DstPort.Matches(h.DstPort) &&
				e.rule.Proto.Matches(h.Proto) {
				best = e.pos
			}
		}
	}
	return best
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.liveN }

// Tuples returns the number of distinct (srcLen, dstLen) tuples ever
// observed (tuples are retained when emptied; Lookup skips them in O(1)).
func (t *Table) Tuples() int { return len(t.tuples) }

// MemoryBytes estimates the table's footprint: slab entries plus bucket
// map overhead, the number a capacity planner would budget for the
// SRAM-resident side structure.
func (t *Table) MemoryBytes() int {
	const entryBytes = 40 // rule (26 packed) + key + links, rounded up
	b := len(t.slab) * entryBytes
	for i := range t.tuples {
		b += 16 + len(t.tuples[i].buckets)*16
	}
	return b
}

// Clone deep-copies the table. Used by the delta layer's copy-on-write
// Apply so published generations are immutable.
func (t *Table) Clone() *Table {
	nt := &Table{
		tuples:   make([]tuple, len(t.tuples)),
		tupIndex: make(map[uint16]int32, len(t.tupIndex)),
		slab:     append([]entry(nil), t.slab...),
		free:     t.free,
		liveN:    t.liveN,
	}
	for k, v := range t.tupIndex {
		nt.tupIndex[k] = v
	}
	for i := range t.tuples {
		src := &t.tuples[i]
		b := make(map[uint64]int32, len(src.buckets))
		for k, v := range src.buckets {
			b[k] = v
		}
		nt.tuples[i] = tuple{srcLen: src.srcLen, dstLen: src.dstLen, buckets: b, live: src.live}
	}
	return nt
}
