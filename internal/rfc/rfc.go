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
// first-match semantics exactly.
package rfc

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/buildgov"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
)

// numChunks is the number of phase-0 chunks.
const numChunks = 7

// chunkBits gives each chunk's width.
var chunkBits = [numChunks]uint{16, 16, 16, 16, 16, 16, 8}

// chunkOf extracts chunk c from a header.
func chunkOf(h rules.Header, c int) uint32 {
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
	case 6:
		return uint32(h.Proto)
	}
	panic(fmt.Sprintf("rfc: invalid chunk %d", c))
}

// chunkSpan projects rule r onto chunk c. For split IP fields the
// projection of span [lo,hi] onto the high half is [lo>>16, hi>>16]; onto
// the low half it is the exact low range when the high half is a single
// value, and the full 16-bit domain otherwise (exact for prefixes).
func chunkSpan(r *rules.Rule, c int) rules.Span {
	switch c {
	case 0:
		s := r.SrcIP.Span()
		return rules.Span{Lo: s.Lo >> 16, Hi: s.Hi >> 16}
	case 1:
		s := r.SrcIP.Span()
		if s.Lo>>16 == s.Hi>>16 {
			return rules.Span{Lo: s.Lo & 0xFFFF, Hi: s.Hi & 0xFFFF}
		}
		return rules.Span{Lo: 0, Hi: 0xFFFF}
	case 2:
		s := r.DstIP.Span()
		return rules.Span{Lo: s.Lo >> 16, Hi: s.Hi >> 16}
	case 3:
		s := r.DstIP.Span()
		if s.Lo>>16 == s.Hi>>16 {
			return rules.Span{Lo: s.Lo & 0xFFFF, Hi: s.Hi & 0xFFFF}
		}
		return rules.Span{Lo: 0, Hi: 0xFFFF}
	case 4:
		return r.SrcPort.Span()
	case 5:
		return r.DstPort.Span()
	case 6:
		return r.Proto.Span()
	}
	panic(fmt.Sprintf("rfc: invalid chunk %d", c))
}

// Config parameterizes RFC construction.
type Config struct {
	// Channels is the number of SRAM channels (1..4).
	Channels int
	// MaxTableEntries caps any single cross-product table.
	MaxTableEntries int
}

// DefaultConfig uses all four channels.
func DefaultConfig() Config {
	return Config{Channels: memlayout.NumChannels, MaxTableEntries: 64 << 20}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.Channels == 0 {
		c.Channels = d.Channels
	}
	if c.MaxTableEntries == 0 {
		c.MaxTableEntries = d.MaxTableEntries
	}
	if c.Channels < 1 || c.Channels > memlayout.NumChannels {
		return fmt.Errorf("rfc: channels %d out of [1,%d]", c.Channels, memlayout.NumChannels)
	}
	return nil
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
	cfg   Config
	rs    *rules.RuleSet
	gov   *buildgov.Governor
	stats BuildStats

	chunkTab [numChunks][]uint32 // value -> class ID

	// Combine tables (the reduction tree):
	//   t01 (srcHi,srcLo), t23 (dstHi,dstLo), t45 (sport,dport)
	//   tSrcDst (t01,t23), tPortProto (t45, proto)
	//   tFinal (tSrcDst, tPortProto) -> rule+1
	t01, t23, t45, tSrcDst, tPortProto, tFinal pairTable

	image *memlayout.Image
	lay   [13]place // 7 chunk tables + 6 combine tables
}

type pairTable struct {
	nB   int
	data []uint32
}

func (p *pairTable) at(a, b uint32) uint32 { return p.data[int(a)*p.nB+int(b)] }

type place struct {
	ch   uint8
	base uint32
}

// New builds the RFC tables and their serialized image.
func New(rs *rules.RuleSet, cfg Config) (*Classifier, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: phase-0 sweeps and every combine-table
// row cooperatively check ctx and charge estimated bytes against budget
// (nil = ctx only); combine tables are charged before allocation.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Classifier, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	c := &Classifier{cfg: cfg, rs: rs, gov: buildgov.Start(ctx, budget)}
	n := rs.Len()

	// Phase 0: per-chunk equivalence classes via segment sweep, then a
	// direct-indexed table per chunk.
	classes := make([][]bitset.Set, numChunks)
	for ch := 0; ch < numChunks; ch++ {
		domain := 1 << chunkBits[ch]
		if err := c.gov.Bytes(int64(domain) * 4); err != nil {
			return nil, err
		}
		// Boundaries where the matching-rule set can change.
		starts := map[uint32]bool{0: true}
		for ri := range rs.Rules {
			sp := chunkSpan(&rs.Rules[ri], ch)
			starts[sp.Lo] = true
			if int(sp.Hi)+1 < domain {
				starts[sp.Hi+1] = true
			}
		}
		in := bitset.NewInterner()
		tab := make([]uint32, domain)
		var cur uint32
		for v := 0; v < domain; v++ {
			if starts[uint32(v)] {
				// One governed row per segment boundary: each costs
				// an O(rules) sweep plus an interned class bitset.
				if err := c.gov.Nodes(1, int64(n/8)+16); err != nil {
					return nil, err
				}
				bs := bitset.New(n)
				for ri := range rs.Rules {
					if chunkSpan(&rs.Rules[ri], ch).Contains(uint32(v)) {
						bs.Add(ri)
					}
				}
				cur = in.Intern(bs)
			}
			tab[v] = cur
		}
		c.chunkTab[ch] = tab
		classes[ch] = make([]bitset.Set, in.Len())
		for id := range classes[ch] {
			classes[ch][id] = in.Class(uint32(id))
		}
		c.stats.Phase0Classes[ch] = in.Len()
	}

	// Combine phases.
	var err error
	var c01, c23, c45, cSD, cPP []bitset.Set
	if c.t01, c01, err = c.cross(classes[0], classes[1]); err != nil {
		return nil, err
	}
	if c.t23, c23, err = c.cross(classes[2], classes[3]); err != nil {
		return nil, err
	}
	if c.t45, c45, err = c.cross(classes[4], classes[5]); err != nil {
		return nil, err
	}
	if c.tSrcDst, cSD, err = c.cross(c01, c23); err != nil {
		return nil, err
	}
	if c.tPortProto, cPP, err = c.cross(c45, classes[6]); err != nil {
		return nil, err
	}
	if c.tFinal, err = c.crossFinal(cSD, cPP); err != nil {
		return nil, err
	}

	c.serialize()
	c.stats.MemoryWords = c.image.TotalWords()
	c.stats.WorstCaseAccesses = numChunks + 6
	return c, nil
}

func (c *Classifier) cross(a, b []bitset.Set) (pairTable, []bitset.Set, error) {
	if len(a)*len(b) > c.cfg.MaxTableEntries {
		return pairTable{}, nil, fmt.Errorf("rfc: table %d×%d exceeds cap %d", len(a), len(b), c.cfg.MaxTableEntries)
	}
	if err := c.gov.Bytes(int64(len(a)) * int64(len(b)) * 4); err != nil {
		return pairTable{}, nil, err
	}
	tab := pairTable{nB: len(b), data: make([]uint32, len(a)*len(b))}
	in := bitset.NewInterner()
	scratch := bitset.New(c.rs.Len())
	for i, bsA := range a {
		if err := c.gov.Nodes(1, 0); err != nil {
			return pairTable{}, nil, err
		}
		for j, bsB := range b {
			// Per-cell poll keeps deadline overshoot at cell granularity
			// even when rows are tens of thousands of cells wide.
			if err := c.gov.Check(); err != nil {
				return pairTable{}, nil, err
			}
			bitset.AndInto(scratch, bsA, bsB)
			tab.data[i*tab.nB+j] = in.Intern(scratch)
		}
	}
	if err := c.gov.Memo(in.Len(), int64(in.Len())*int64(c.rs.Len()/8+16)); err != nil {
		return pairTable{}, nil, err
	}
	out := make([]bitset.Set, in.Len())
	for id := range out {
		out[id] = in.Class(uint32(id))
	}
	return tab, out, nil
}

func (c *Classifier) crossFinal(a, b []bitset.Set) (pairTable, error) {
	if len(a)*len(b) > c.cfg.MaxTableEntries {
		return pairTable{}, fmt.Errorf("rfc: final table %d×%d exceeds cap %d", len(a), len(b), c.cfg.MaxTableEntries)
	}
	if err := c.gov.Bytes(int64(len(a)) * int64(len(b)) * 4); err != nil {
		return pairTable{}, err
	}
	tab := pairTable{nB: len(b), data: make([]uint32, len(a)*len(b))}
	scratch := bitset.New(c.rs.Len())
	for i, bsA := range a {
		if err := c.gov.Nodes(1, 0); err != nil {
			return pairTable{}, err
		}
		for j, bsB := range b {
			if err := c.gov.Check(); err != nil {
				return pairTable{}, err
			}
			bitset.AndInto(scratch, bsA, bsB)
			tab.data[i*tab.nB+j] = uint32(scratch.First() + 1)
		}
	}
	return tab, nil
}

// Classify performs the native lookup.
func (c *Classifier) Classify(h rules.Header) int {
	var cls [numChunks]uint32
	for ch := 0; ch < numChunks; ch++ {
		cls[ch] = c.chunkTab[ch][chunkOf(h, ch)]
	}
	a := c.t01.at(cls[0], cls[1])
	b := c.t23.at(cls[2], cls[3])
	p := c.t45.at(cls[4], cls[5])
	sd := c.tSrcDst.at(a, b)
	pp := c.tPortProto.at(p, cls[6])
	return int(c.tFinal.at(sd, pp)) - 1
}

// ClassifyBatch classifies hs[i] into out[i] (the
// rules.BatchClassifier contract; out must be at least as long as hs). RFC's
// lookup is a fixed 13-read sequence with stack-only scratch, so the loop
// is already allocation-free; the batch form amortizes dispatch and keeps
// the phase-0 chunk tables hot across consecutive packets.
func (c *Classifier) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = c.Classify(h)
	}
}

// Name identifies the algorithm in reports.
func (c *Classifier) Name() string { return "RFC" }

// Stats returns build statistics.
func (c *Classifier) Stats() BuildStats { return c.stats }

// MemoryBytes returns the serialized footprint.
func (c *Classifier) MemoryBytes() int { return c.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (c *Classifier) Image() *memlayout.Image { return c.image }

func (c *Classifier) serialize() {
	c.image = memlayout.NewImage()
	next := 0
	spot := func() uint8 {
		ch := uint8(next % c.cfg.Channels)
		next++
		return ch
	}
	for ch := 0; ch < numChunks; ch++ {
		sc := spot()
		c.lay[ch] = place{sc, c.image.Alloc(sc, c.chunkTab[ch])}
	}
	for i, tab := range []*pairTable{&c.t01, &c.t23, &c.t45, &c.tSrcDst, &c.tPortProto, &c.tFinal} {
		sc := spot()
		c.lay[numChunks+i] = place{sc, c.image.Alloc(sc, tab.data)}
	}
}

// Lookup runs the serialized lookup: 13 single-word reads.
func (c *Classifier) Lookup(mem nptrace.Mem, h rules.Header) int {
	costs := nptrace.DefaultCosts
	read := func(slot int, idx uint32) uint32 {
		pl := c.lay[slot]
		mem.Compute(2*costs.ALU + costs.IssueIO)
		return mem.Read(pl.ch, pl.base+idx, 1)[0]
	}
	var cls [numChunks]uint32
	for ch := 0; ch < numChunks; ch++ {
		cls[ch] = read(ch, chunkOf(h, ch))
	}
	a := read(7, cls[0]*uint32(c.t01.nB)+cls[1])
	b := read(8, cls[2]*uint32(c.t23.nB)+cls[3])
	p := read(9, cls[4]*uint32(c.t45.nB)+cls[5])
	sd := read(10, a*uint32(c.tSrcDst.nB)+b)
	pp := read(11, p*uint32(c.tPortProto.nB)+cls[6])
	return int(read(12, sd*uint32(c.tFinal.nB)+pp)) - 1
}

// Program records the access program for one header.
func (c *Classifier) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(c.image)
	return rec.Finish(c.Lookup(rec, h))
}

// Verify cross-checks the serialized lookup against the native one.
func (c *Classifier) Verify(headers []rules.Header) error {
	mem := nptrace.NullMem{R: c.image}
	for _, h := range headers {
		if got, want := c.Lookup(mem, h), c.Classify(h); got != want {
			return fmt.Errorf("rfc: serialized lookup %d != native %d for %v", got, want, h)
		}
	}
	return nil
}
