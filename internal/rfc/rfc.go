// Package rfc implements Recursive Flow Classification (Gupta & McKeown,
// SIGCOMM 1999), the other canonical field-independent scheme the paper's
// taxonomy cites (§2). It completes the comparison set as an extension
// beyond the paper's three measured algorithms.
//
// RFC splits the 104-bit header into seven chunks (four 16-bit IP halves,
// two 16-bit ports, the 8-bit protocol). Phase 0 maps each chunk value to
// an equivalence-class ID through a direct-indexed table; later phases
// combine class IDs pairwise through cross-product tables until one final
// table yields the matching rule. A lookup is a fixed sequence of 13
// single-word reads — even fewer than ExpCuts — but phase-0 tables alone
// cost 6 × 2^16 entries, the memory-for-speed trade the paper attributes
// to field-independent schemes.
//
// Because IP fields are prefixes and ports are native 16-bit ranges, every
// chunk projection is exact, so intersecting chunk classes reproduces
// first-match semantics exactly. The sweep, the tables and the walks are
// the cross-producting core (package crossprod); RFC adds its seven chunk
// projections, its direct-indexed phase-0 form and its plan.
package rfc

import (
	"context"

	"repro/internal/buildgov"
	"repro/internal/crossprod"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
)

// numChunks is the number of phase-0 chunks.
const numChunks = 7

// chunkDim is the field each chunk is cut from: chunks 0–3 are the high
// and low halves of the two addresses.
var chunkDim = [numChunks]rules.Dim{rules.DimSrcIP, rules.DimSrcIP, rules.DimDstIP, rules.DimDstIP,
	rules.DimSrcPort, rules.DimDstPort, rules.DimProto}

// chunkOf extracts chunk c (0..6; 6 is the protocol) from a header. It
// takes the header by pointer so that an inlined call reads only its field.
func chunkOf(h *rules.Header, c int) uint32 {
	switch c {
	case 0:
		return h.SrcIP >> 16
	case 1:
		return h.SrcIP & 0xFFFF
	case 2:
		return h.DstIP >> 16
	case 3:
		return h.DstIP & 0xFFFF
	case 4:
		return uint32(h.SrcPort)
	case 5:
		return uint32(h.DstPort)
	}
	return uint32(h.Proto)
}

// chunkSpan projects rule r onto chunk c. For split IP fields the
// projection of span [lo,hi] onto the high half is [lo>>16, hi>>16]; onto
// the low half it is the exact low range when the high half is a single
// value, and the full 16-bit domain otherwise (exact for prefixes).
func chunkSpan(r *rules.Rule, c int) rules.Span {
	s := r.Span(chunkDim[c])
	switch {
	case c >= 4:
		return s
	case c%2 == 0:
		return rules.Span{Lo: s.Lo >> 16, Hi: s.Hi >> 16}
	case s.Lo>>16 == s.Hi>>16:
		return rules.Span{Lo: s.Lo & 0xFFFF, Hi: s.Hi & 0xFFFF}
	}
	return rules.Span{Lo: 0, Hi: 0xFFFF}
}

// Config parameterizes RFC construction: Channels (1..4) and
// MaxTableEntries, the cap on any single cross-product table.
type Config = crossprod.Config

// DefaultConfig uses all four SRAM channels.
func DefaultConfig() Config { return crossprod.DefaultConfig() }

// plan is RFC's reduction tree over the families 0..6 (the chunks) and
// 7 = (srcHi,srcLo), 8 = (dstHi,dstLo), 9 = (sport,dport),
// 10 = (src,dst), 11 = (ports,proto).
var plan = [][2]uint8{{0, 1}, {2, 3}, {4, 5}, {7, 8}, {9, 6}, {10, 11}}

// chunks is RFC's phase 0: one direct-indexed table per chunk, value to
// class ID.
type chunks [numChunks]struct {
	tab []uint32
	at  crossprod.Place
}

func (t *chunks) Place(img *memlayout.Image, spot func() uint8) {
	for ch := range t {
		sc := spot()
		t[ch].at = crossprod.Place{Ch: sc, Base: img.Alloc(sc, t[ch].tab)}
	}
}

// Classify reads the chunk tables straight-line, so each inlined chunkOf
// folds to its case; a loop would take the switch for every chunk.
func (t *chunks) Classify(h rules.Header, tabs crossprod.Tables) int {
	v := crossprod.IDs{t[0].tab[chunkOf(&h, 0)], t[1].tab[chunkOf(&h, 1)], t[2].tab[chunkOf(&h, 2)],
		t[3].tab[chunkOf(&h, 3)], t[4].tab[chunkOf(&h, 4)], t[5].tab[chunkOf(&h, 5)], t[6].tab[chunkOf(&h, 6)]}
	return tabs.Combine(&v)
}

func (t *chunks) Lookup(mem nptrace.Mem, h rules.Header) (v crossprod.IDs) {
	for ch := range t {
		v[ch] = t[ch].at.Read(mem, chunkOf(&h, ch))
	}
	return v
}

// BuildStats reports table sizes.
type BuildStats struct {
	// Phase0Classes counts equivalence classes per chunk.
	Phase0Classes [numChunks]int
	// MemoryWords is the serialized footprint.
	MemoryWords int
	// WorstCaseAccesses is the fixed lookup cost: 7 phase-0 reads + 6
	// combine reads.
	WorstCaseAccesses int
}

// Classifier is a built RFC classifier.
type Classifier struct {
	*crossprod.Classifier
	stats BuildStats
}

// New builds the RFC tables and their serialized image.
func New(rs *rules.RuleSet, cfg Config) (*Classifier, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: phase-0 sweeps and every combine-table
// row cooperatively check ctx and charge estimated bytes against budget
// (nil = ctx only); phase-0 and combine tables are charged before
// allocation.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Classifier, error) {
	b, err := crossprod.Start(ctx, "rfc", rs, cfg, budget)
	if err != nil {
		return nil, err
	}
	p0 := new(chunks)
	for ch := range p0 {
		top := min(chunkDim[ch].Max(), 0xFFFF) // 16-bit chunks, 8-bit protocol
		if err := b.Bytes(int64(top+1) * 4); err != nil {
			return nil, err
		}
		starts, ids, err := b.Sweep(func(r *rules.Rule) rules.Span { return chunkSpan(r, ch) }, top)
		if err != nil {
			return nil, err
		}
		tab, seg := make([]uint32, top+1), 0
		for v := range tab {
			if seg+1 < len(starts) && uint32(v) == starts[seg+1] {
				seg++
			}
			tab[v] = ids[seg]
		}
		p0[ch].tab = tab
	}
	cl, classes, err := b.Finish(p0, plan)
	if err != nil {
		return nil, err
	}
	c := &Classifier{Classifier: cl}
	copy(c.stats.Phase0Classes[:], classes)
	c.stats.MemoryWords = c.Image().TotalWords()
	c.stats.WorstCaseAccesses = numChunks + len(plan)
	return c, nil
}

// Stats returns build statistics.
func (c *Classifier) Stats() BuildStats { return c.stats }
