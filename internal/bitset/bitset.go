// Package bitset provides fixed-width bitsets over rule indices, the
// workhorse of the field-independent classifiers (HSM, RFC): equivalence
// classes of "which rules match this region" are bitsets, and combining
// phases intersect them.
package bitset

import (
	"encoding/binary"
	"math/bits"
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

// AppendKey appends a canonical byte encoding of the set to buf, for use as
// an interning map key; the same bits always produce the same bytes.
func (s Set) AppendKey(buf []byte) []byte {
	for _, w := range s {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Interner deduplicates bitsets into dense class IDs.
type Interner struct {
	classes []Set
	index   map[string]uint32
	scratch []byte
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{index: make(map[string]uint32)}
}

// Intern returns the class ID of s, registering a clone of it if unseen.
// The caller may reuse s's storage afterwards.
func (in *Interner) Intern(s Set) uint32 {
	in.scratch = s.AppendKey(in.scratch[:0])
	if id, ok := in.index[string(in.scratch)]; ok {
		return id
	}
	id := uint32(len(in.classes))
	in.classes = append(in.classes, s.Clone())
	in.index[string(in.scratch)] = id
	return id
}

// Class returns the bitset of a class ID.
func (in *Interner) Class(id uint32) Set {
	return in.classes[id]
}

// Classes returns every class, indexed by ID; the caller must not modify
// them.
func (in *Interner) Classes() []Set {
	return in.classes
}

// Len returns the number of distinct classes.
func (in *Interner) Len() int {
	return len(in.classes)
}
