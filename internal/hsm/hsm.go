// Package hsm implements Hierarchical Space Mapping (Xu, Jiang & Li, AINA
// 2005), the field-independent baseline of the paper's comparison. Each of
// the five header fields is independently mapped to a segment by binary
// search; segments carry equivalence-class IDs, and pairwise cross-product
// tables combine classes hierarchically —
//
//	(srcIP, dstIP)   → IP class
//	(srcPort, dstPort) → port class
//	(IP, port)       → combined class
//	(combined, proto) → matching rule
//
// — so a lookup costs Θ(log N) single-word SRAM reads for the binary
// searches plus four table reads, while the cross-product tables consume
// the "tens of megabytes" the paper attributes to field-independent schemes
// (§2). The sweep, the tables and the walks are the cross-producting core
// (package crossprod); HSM adds its five field projections, its
// binary-searched phase-0 form and its plan.
package hsm

import (
	"context"
	"math/bits"
	"sort"

	"repro/internal/buildgov"
	"repro/internal/crossprod"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
)

// Config parameterizes HSM construction: Channels (1..4) and
// MaxTableEntries, the cap on any single cross-product table.
type Config = crossprod.Config

// DefaultConfig uses all four SRAM channels.
func DefaultConfig() Config { return crossprod.DefaultConfig() }

// plan is HSM's reduction tree over the families 0..4 (the fields) and
// 5 = IP, 6 = port, 7 = combined.
var plan = [][2]uint8{{0, 1}, {2, 3}, {5, 6}, {7, 4}}

// dimTable is the phase-0 structure of one dimension: sorted segment start
// values for binary search, and the equivalence class of each segment,
// both on one channel.
type dimTable struct {
	segLo, classID []uint32
	lo, cls        crossprod.Place
}

// segment returns the index of the segment containing v: the largest i
// with segLo[i] <= v.
func (d *dimTable) segment(v uint32) int {
	// sort.Search returns the first i with segLo[i] > v; the segment is
	// the one before it. segLo[0] == 0, so i >= 1.
	return sort.Search(len(d.segLo), func(i int) bool { return d.segLo[i] > v }) - 1
}

// fields is HSM's phase 0: one binary-searched segment table per field.
type fields [rules.NumDims]dimTable

func (f *fields) Place(img *memlayout.Image, spot func() uint8) {
	for d := range f {
		ch := spot()
		f[d].lo = crossprod.Place{Ch: ch, Base: img.Alloc(ch, f[d].segLo)}
		f[d].cls = crossprod.Place{Ch: ch, Base: img.Alloc(ch, f[d].classID)}
	}
}

// Classify finds each field's segment and its class, then combines.
func (f *fields) Classify(h rules.Header, tabs crossprod.Tables) int {
	var v crossprod.IDs
	for d := range f {
		v[d] = f[d].classID[f[d].segment(h.Field(rules.Dim(d)))]
	}
	return tabs.Combine(&v)
}

// Lookup runs the binary searches through mem: single-word reads of the
// segment starts, then one class-ID read per field — every access a
// single 32-bit word, the property the paper credits HSM's speed to
// (§6.6).
func (f *fields) Lookup(mem nptrace.Mem, h rules.Header) (v crossprod.IDs) {
	for d := range f {
		dt := &f[d]
		lo, hi := 0, len(dt.segLo)
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			probe := dt.lo.Read(mem, uint32(mid))
			mem.Compute(nptrace.DefaultCosts.Branch)
			if probe > h.Field(rules.Dim(d)) {
				hi = mid
			} else {
				lo = mid
			}
		}
		mem.Compute(nptrace.DefaultCosts.IssueIO)
		v[d] = mem.Read(dt.cls.Ch, dt.cls.Base+uint32(lo), 1)[0]
	}
	return v
}

// BuildStats reports the sizes that drive HSM's time/space profile.
type BuildStats struct {
	// Segments and Classes per dimension.
	Segments [rules.NumDims]int
	Classes  [rules.NumDims]int
	// IPClasses, PortClasses and CombinedClasses are the intermediate
	// equivalence-class counts.
	IPClasses, PortClasses, CombinedClasses int
	// MemoryWords is the serialized SRAM footprint.
	MemoryWords int
	// WorstCaseAccesses is the SRAM command bound per lookup.
	WorstCaseAccesses int
}

// Classifier is a built HSM classifier.
type Classifier struct {
	*crossprod.Classifier
	dims  *fields
	stats BuildStats
}

// New builds the HSM structures and their serialized image.
func New(rs *rules.RuleSet, cfg Config) (*Classifier, error) {
	return NewCtx(context.Background(), rs, cfg, nil)
}

// NewCtx is New under governance: the segment sweeps and cross-producting
// loops cooperatively check ctx and charge rows / estimated table bytes
// against budget (nil = ctx only). Cross-product tables are charged
// *before* allocation, so an absurd table is refused without ever being
// held in memory.
func NewCtx(ctx context.Context, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Classifier, error) {
	b, err := crossprod.Start(ctx, "hsm", rs, cfg, budget)
	if err != nil {
		return nil, err
	}
	c := &Classifier{dims: new(fields)}
	// The binary searches plus one class read per dimension plus the
	// table reads.
	c.stats.WorstCaseAccesses = rules.NumDims + len(plan)
	for d := range c.dims {
		starts, ids, err := b.Sweep(func(r *rules.Rule) rules.Span { return r.Span(rules.Dim(d)) }, rules.Dim(d).Max())
		if err != nil {
			return nil, err
		}
		c.dims[d].segLo, c.dims[d].classID = starts, ids
		c.stats.Segments[d] = len(starts)
		c.stats.WorstCaseAccesses += bits.Len(uint(len(starts) - 1)) // ⌈log2⌉

	}
	cl, classes, err := b.Finish(c.dims, plan)
	if err != nil {
		return nil, err
	}
	c.Classifier = cl
	copy(c.stats.Classes[:], classes)
	c.stats.IPClasses, c.stats.PortClasses, c.stats.CombinedClasses = classes[5], classes[6], classes[7]
	c.stats.MemoryWords = c.Image().TotalWords()
	return c, nil
}

// Stats returns build statistics.
func (c *Classifier) Stats() BuildStats { return c.stats }
