// Package bitset provides fixed-width bitsets over rule indices, the
// workhorse of the field-independent classifiers (HSM, RFC): equivalence
// classes of "which rules match this region" are bitsets, and combining
// phases intersect them.
package bitset

import (
	"math/bits"
	"slices"
)

// Set is a fixed-width bitset. All sets combined together must be created
// with the same universe size.
type Set []uint64

// New returns an empty set able to hold n bits.
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Add sets bit i.
func (s Set) Add(i int) {
	s[i/64] |= 1 << (i % 64)
}

// Has reports whether bit i is set.
func (s Set) Has(i int) bool {
	return s[i/64]&(1<<(i%64)) != 0
}

// AndInto stores a ∧ b into dst (all three must share a width) and reports
// whether the result is non-empty. dst may alias a or b.
func AndInto(dst, a, b Set) bool {
	any := uint64(0)
	for i := range dst {
		v := a[i] & b[i]
		dst[i] = v
		any |= v
	}
	return any != 0
}

// First returns the index of the lowest set bit, or -1 if the set is empty.
// Because rule bitsets are indexed by priority, First is "the
// highest-priority matching rule".
func (s Set) First() int {
	for i, w := range s {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether two sets of the same width hold the same bits.
func (s Set) Equal(t Set) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Interner deduplicates bitsets of one width into dense class IDs. Every
// class's words live in one slab, and an open-addressed table indexes them
// by a 64-bit hash of the words; a probe compares the full words wherever
// the hash matches, so a collision costs a compare and never a wrong
// class. Interning allocates only when the slab or the table grows.
type Interner struct {
	words []uint64 // class id is words[id*width:][:width]
	width int
	n     int
	slots []slot // len a power of two, at most three quarters full
}

// slot is one table entry: a class's hash and its ID + 1 (0 = empty).
type slot struct {
	hash uint64
	id   uint32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{slots: make([]slot, 64)}
}

// hashWords hashes s in four independent lanes, so the multiplies of
// neighbouring words overlap instead of waiting on each other.
func hashWords(s Set) uint64 {
	const k = 0x9E3779B97F4A7C15
	h0, h1, h2, h3 := uint64(len(s)), uint64(1), uint64(2), uint64(3)
	for ; len(s) >= 4; s = s[4:] {
		h0 = (bits.RotateLeft64(h0, 23) ^ s[0]) * k
		h1 = (bits.RotateLeft64(h1, 23) ^ s[1]) * k
		h2 = (bits.RotateLeft64(h2, 23) ^ s[2]) * k
		h3 = (bits.RotateLeft64(h3, 23) ^ s[3]) * k
	}
	for _, w := range s {
		h0 = (bits.RotateLeft64(h0, 23) ^ w) * k
	}
	h := (h0 ^ bits.RotateLeft64(h1, 16) ^ bits.RotateLeft64(h2, 32) ^ bits.RotateLeft64(h3, 48)) * k
	return h ^ h>>29
}

// Intern returns the class ID of s, registering a copy of it if unseen.
// The caller may reuse s's storage afterwards.
func (in *Interner) Intern(s Set) uint32 {
	if in.n == 0 {
		in.width = len(s)
	}
	h := hashWords(s)
	mask := uint64(len(in.slots) - 1)
	i := h & mask
	for ; in.slots[i].id != 0; i = (i + 1) & mask {
		if sl := in.slots[i]; sl.hash == h && in.Class(sl.id-1).Equal(s) {
			return sl.id - 1
		}
	}
	id := uint32(in.n)
	in.n++
	if len(in.words)+len(s) > cap(in.words) {
		in.words = slices.Grow(in.words, len(in.words)+len(s)) // double
	}
	in.words = append(in.words, s...)
	in.slots[i] = slot{hash: h, id: id + 1}
	if 4*in.n > 3*len(in.slots) {
		old := in.slots
		in.slots = make([]slot, 2*len(old))
		mask = uint64(len(in.slots) - 1)
		for _, sl := range old {
			if sl.id != 0 {
				j := sl.hash & mask
				for in.slots[j].id != 0 {
					j = (j + 1) & mask
				}
				in.slots[j] = sl
			}
		}
	}
	return id
}

// Class returns the bitset of a class ID; the caller must not modify it.
func (in *Interner) Class(id uint32) Set {
	lo := int(id) * in.width
	return in.words[lo : lo+in.width : lo+in.width]
}

// Classes returns every class, indexed by ID; the caller must not modify
// them.
func (in *Interner) Classes() []Set {
	cs := make([]Set, in.n)
	for id := range cs {
		cs[id] = in.Class(uint32(id))
	}
	return cs
}

// Len returns the number of distinct classes.
func (in *Interner) Len() int {
	return in.n
}
