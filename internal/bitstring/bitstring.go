// Package bitstring implements the pointer-array compression schemes the
// paper builds on: the flat Aggregation Bit String (ABS) with a Compressed
// Pointer Array (CPA), and the paper's Hierarchical Aggregation Bit String
// (HABS), which compresses runs of identical *sub-arrays* of pointers so the
// bit string itself stays small enough to pack into a single 32-bit SRAM
// word next to the node descriptor.
//
// Terminology follows the paper (§4.2.2): a node has 2^w child pointers;
// the HABS has 2^v bits; each bit covers a sub-array of 2^u consecutive
// pointers, with u = w - v. Bit i of the HABS is set iff sub-array i differs
// from sub-array i-1 (bit 0 is always set); each set bit appends its
// sub-array to the CPA. Pointer n is recovered as:
//
//	m := n >> u                                 // sub-array index
//	j := n & (1<<u - 1)                         // offset within sub-array
//	i := popcount(HABS & ((2 << m) - 1)) - 1    // CPA sub-array index
//	ptr := CPA[i<<u+j]
//
// The popcount maps to the IXP2850 POP_COUNT instruction (3 cycles), which
// is what makes the decode affordable on the paper's hardware.
package bitstring

import (
	"fmt"
	"math/bits"
)

// ABS is a flat aggregation bit string over an array of pointers: bit k is
// set iff entry k differs from entry k-1 (bit 0 always set). Unique entries
// are stored in CPA in order of first appearance of each run.
type ABS struct {
	// Bits holds the aggregation bit string packed into 32-bit words,
	// least significant bit of word 0 first (matching SRAM word order).
	Bits []uint32
	// CPA holds one pointer per run of identical entries.
	CPA []uint32
	// N is the length of the original (uncompressed) pointer array.
	N int
}

// CompressABS builds the ABS/CPA encoding of ptrs.
func CompressABS(ptrs []uint32) ABS {
	a := ABS{
		Bits: make([]uint32, (len(ptrs)+31)/32),
		N:    len(ptrs),
	}
	for k, p := range ptrs {
		if k == 0 || p != ptrs[k-1] {
			a.Bits[k/32] |= 1 << (k % 32)
			a.CPA = append(a.CPA, p)
		}
	}
	return a
}

// At recovers entry n of the original pointer array: the rank (number of set
// bits at positions 0..n) indexes the CPA.
func (a ABS) At(n int) uint32 {
	if n < 0 || n >= a.N {
		panic(fmt.Sprintf("bitstring: ABS index %d out of range [0,%d)", n, a.N))
	}
	rank := 0
	word := n / 32
	for w := 0; w < word; w++ {
		rank += bits.OnesCount32(a.Bits[w])
	}
	// Positions 0..n within the final word: n%32+1 low bits.
	last := a.Bits[word] & lowMask(uint(n%32)+1)
	rank += bits.OnesCount32(last)
	return a.CPA[rank-1]
}

// Decompress expands the ABS back to the full pointer array.
func (a ABS) Decompress() []uint32 {
	out := make([]uint32, a.N)
	idx := -1
	for k := 0; k < a.N; k++ {
		if a.Bits[k/32]&(1<<(k%32)) != 0 {
			idx++
		}
		out[k] = a.CPA[idx]
	}
	return out
}

// Words returns the number of 32-bit SRAM words the encoding occupies
// (bit-string words plus CPA words).
func (a ABS) Words() int {
	return len(a.Bits) + len(a.CPA)
}

// HABS is the paper's hierarchical aggregation bit string: a 2^v-bit string
// over 2^(w-v)-pointer sub-arrays. The bit string fits in a uint32 (the
// paper uses 16 bits so it packs into the node word with the cut
// descriptor).
type HABS struct {
	// Bits is the hierarchical aggregation bit string (2^v significant
	// bits, bit 0 = first sub-array, always set).
	Bits uint32
	// CPA holds the unique sub-arrays concatenated: each set bit of Bits
	// contributes 2^u consecutive pointers.
	CPA []uint32
	// W and V are the configuration exponents: 2^W pointers total, 2^V
	// bits in the string. U = W - V.
	W, V uint
}

// MaxV is the largest supported HABS exponent: 2^5 = 32 bits still fits the
// uint32 Bits field. The paper uses V = 4 (16 bits).
const MaxV = 5

// CompressHABS builds the HABS encoding of ptrs, which must have length 2^w.
// v must satisfy v <= w and v <= MaxV.
func CompressHABS(ptrs []uint32, w, v uint) (HABS, error) {
	words, err := AppendHABS(nil, ptrs, w, v)
	if err != nil {
		return HABS{}, err
	}
	return HABS{Bits: words[0], CPA: words[1:], W: w, V: v}, nil
}

// AppendHABS appends the HABS encoding of ptrs to dst as one word of bit
// string followed by the CPA, the layout a serialized node stores. Its
// arguments are CompressHABS's.
func AppendHABS(dst, ptrs []uint32, w, v uint) ([]uint32, error) {
	if v > w {
		return dst, fmt.Errorf("bitstring: v=%d exceeds w=%d", v, w)
	}
	if v > MaxV {
		return dst, fmt.Errorf("bitstring: v=%d exceeds MaxV=%d", v, MaxV)
	}
	if len(ptrs) != 1<<w {
		return dst, fmt.Errorf("bitstring: %d pointers, want 2^%d=%d", len(ptrs), w, 1<<w)
	}
	head := len(dst)
	dst = append(dst, 0)
	sub := 1 << (w - v)
	for i := 0; i < 1<<v; i++ {
		cur := ptrs[i*sub : (i+1)*sub]
		if i == 0 || !equalU32(cur, ptrs[(i-1)*sub:i*sub]) {
			dst[head] |= 1 << i
			dst = append(dst, cur...)
		}
	}
	return dst, nil
}

// At recovers pointer n using the paper's 4-step decode. This is the exact
// arithmetic the serialized SRAM lookup performs.
func (h HABS) At(n int) uint32 {
	if n < 0 || n >= 1<<h.W {
		panic(fmt.Sprintf("bitstring: HABS index %d out of range [0,%d)", n, 1<<h.W))
	}
	u := h.W - h.V
	m := uint(n) >> u            // step 1: high v bits
	j := uint32(n) & lowMask(u)  // step 2: low u bits
	i := Rank(h.Bits, m) - 1     // step 3: prefix popcount
	return h.CPA[uint32(i)<<u+j] // step 4: CPA load
}

// Decompress expands the HABS back to the full 2^W pointer array.
func (h HABS) Decompress() []uint32 {
	u := h.W - h.V
	sub := 1 << u
	out := make([]uint32, 1<<h.W)
	idx := -1
	for m := 0; m < 1<<h.V; m++ {
		if h.Bits&(1<<m) != 0 {
			idx++
		}
		copy(out[m*sub:(m+1)*sub], h.CPA[idx*sub:(idx+1)*sub])
	}
	return out
}

// Words returns the number of 32-bit SRAM words the encoding occupies. The
// bit string itself shares the node descriptor word (the paper packs the
// 16-bit HABS with the cutting information in one long-word), so only the
// CPA counts.
func (h HABS) Words() int {
	return len(h.CPA)
}

// SubArrays returns the number of set bits, i.e. distinct consecutive
// sub-arrays stored in the CPA.
func (h HABS) SubArrays() int {
	return bits.OnesCount32(h.Bits)
}

// Rank counts the set bits of bs at positions 0..m inclusive. On the
// IXP2850 this is an AND to mask off the undesired high bits followed by
// POP_COUNT (§5.4 of the paper).
func Rank(bs uint32, m uint) int {
	return bits.OnesCount32(bs & prefixMask(m))
}

// prefixMask returns a mask of bits 0..m inclusive.
func prefixMask(m uint) uint32 {
	if m >= 31 {
		return ^uint32(0)
	}
	return (uint32(2) << m) - 1
}

func lowMask(n uint) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (uint32(1) << n) - 1
}

func equalU32(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
