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
// (§2). Each equivalence class is the bitset of rules matching a region;
// the final table stores the lowest-set bit (highest-priority rule).
package hsm

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/buildgov"
	"repro/internal/memlayout"
	"repro/internal/rules"
)

// Config parameterizes HSM construction.
type Config struct {
	// Channels is the number of SRAM channels the serialized structures
	// are spread across (1..4).
	Channels int
	// MaxTableEntries caps any single cross-product table; construction
	// fails beyond it rather than exhausting memory. Zero means the
	// default of 64 Mi entries.
	MaxTableEntries int
}

// DefaultConfig uses all four SRAM channels.
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
		return fmt.Errorf("hsm: channels %d out of [1,%d]", c.Channels, memlayout.NumChannels)
	}
	return nil
}

// dimTable is the phase-0 structure of one dimension: sorted segment start
// values for binary search, and the equivalence class of each segment.
type dimTable struct {
	segLo   []uint32
	classID []uint32
	classes []bitset.Set
}

// segment returns the index of the segment containing v: the largest i
// with segLo[i] <= v.
func (d *dimTable) segment(v uint32) int {
	// sort.Search returns the first i with segLo[i] > v; the segment is
	// the one before it. segLo[0] == 0, so i >= 1.
	return sort.Search(len(d.segLo), func(i int) bool { return d.segLo[i] > v }) - 1
}

// pairTable is one cross-product table: data[a*strideB+b].
type pairTable struct {
	nA, nB int
	data   []uint32
}

func (p *pairTable) at(a, b uint32) uint32 {
	return p.data[int(a)*p.nB+int(b)]
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
	cfg                                 Config
	rs                                  *rules.RuleSet
	gov                                 *buildgov.Governor
	dims                                [rules.NumDims]dimTable
	tabIP, tabPort, tabIPPort, tabFinal pairTable
	stats                               BuildStats

	image *memlayout.Image
	lay   layout
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
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	c := &Classifier{cfg: cfg, rs: rs, gov: buildgov.Start(ctx, budget)}

	// Phase 0: per-dimension segments and classes.
	n := rs.Len()
	for d := 0; d < rules.NumDims; d++ {
		segs := rules.ProjectedSegments(rs, rules.Dim(d))
		dt := dimTable{
			segLo:   make([]uint32, len(segs)),
			classID: make([]uint32, len(segs)),
		}
		in := bitset.NewInterner()
		for i, seg := range segs {
			// Each segment costs an O(rules) sweep plus its class
			// bitset: one governed row.
			if err := c.gov.Nodes(1, int64(n/8)+16); err != nil {
				return nil, err
			}
			dt.segLo[i] = seg.Lo
			bs := bitset.New(n)
			for ri := range rs.Rules {
				if rs.Rules[ri].Span(rules.Dim(d)).Covers(seg) {
					bs.Add(ri)
				}
			}
			dt.classID[i] = in.Intern(bs)
		}
		for id := 0; id < in.Len(); id++ {
			dt.classes = append(dt.classes, in.Class(uint32(id)))
		}
		c.dims[d] = dt
		c.stats.Segments[d] = len(segs)
		c.stats.Classes[d] = in.Len()
	}

	// Phases 1–3: hierarchical cross-producting.
	var err error
	var ipClasses, portClasses, combClasses []bitset.Set
	if c.tabIP, ipClasses, err = c.cross(c.dims[0].classes, c.dims[1].classes); err != nil {
		return nil, err
	}
	if c.tabPort, portClasses, err = c.cross(c.dims[2].classes, c.dims[3].classes); err != nil {
		return nil, err
	}
	if c.tabIPPort, combClasses, err = c.cross(ipClasses, portClasses); err != nil {
		return nil, err
	}
	if c.tabFinal, err = c.crossFinal(combClasses, c.dims[4].classes); err != nil {
		return nil, err
	}
	c.stats.IPClasses = len(ipClasses)
	c.stats.PortClasses = len(portClasses)
	c.stats.CombinedClasses = len(combClasses)

	c.serialize()
	c.stats.MemoryWords = c.image.TotalWords()
	c.stats.WorstCaseAccesses = c.worstCaseAccesses()
	return c, nil
}

// cross builds the table combining two class families into intersection
// classes.
func (c *Classifier) cross(a, b []bitset.Set) (pairTable, []bitset.Set, error) {
	if len(a)*len(b) > c.cfg.MaxTableEntries {
		return pairTable{}, nil, fmt.Errorf("hsm: cross-product table %d×%d exceeds cap %d entries",
			len(a), len(b), c.cfg.MaxTableEntries)
	}
	// Charge the table before allocating it.
	if err := c.gov.Bytes(int64(len(a)) * int64(len(b)) * 4); err != nil {
		return pairTable{}, nil, err
	}
	tab := pairTable{nA: len(a), nB: len(b), data: make([]uint32, len(a)*len(b))}
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
	// Interned intersection classes are this phase's memo table.
	if err := c.gov.Memo(in.Len(), int64(in.Len())*int64(c.rs.Len()/8+16)); err != nil {
		return pairTable{}, nil, err
	}
	classes := make([]bitset.Set, in.Len())
	for id := range classes {
		classes[id] = in.Class(uint32(id))
	}
	return tab, classes, nil
}

// crossFinal builds the last table, mapping straight to rule index + 1
// (0 = no match).
func (c *Classifier) crossFinal(a, b []bitset.Set) (pairTable, error) {
	if len(a)*len(b) > c.cfg.MaxTableEntries {
		return pairTable{}, fmt.Errorf("hsm: final table %d×%d exceeds cap %d entries",
			len(a), len(b), c.cfg.MaxTableEntries)
	}
	if err := c.gov.Bytes(int64(len(a)) * int64(len(b)) * 4); err != nil {
		return pairTable{}, err
	}
	tab := pairTable{nA: len(a), nB: len(b), data: make([]uint32, len(a)*len(b))}
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

// Classify performs the native (untraced) lookup.
func (c *Classifier) Classify(h rules.Header) int {
	var cls [rules.NumDims]uint32
	for d := 0; d < rules.NumDims; d++ {
		dt := &c.dims[d]
		cls[d] = dt.classID[dt.segment(h.Field(rules.Dim(d)))]
	}
	ip := c.tabIP.at(cls[0], cls[1])
	port := c.tabPort.at(cls[2], cls[3])
	comb := c.tabIPPort.at(ip, port)
	return int(c.tabFinal.at(comb, cls[4])) - 1
}

// ClassifyBatch classifies hs[i] into out[i] (the
// rules.BatchClassifier contract; out must be at least as long as hs). The
// per-packet lookup keeps its class scratch on the stack, so the loop is
// already allocation-free; the batch form amortizes dispatch and keeps
// the segment arrays hot across consecutive packets.
func (c *Classifier) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = c.Classify(h)
	}
}

// Name identifies the algorithm in reports.
func (c *Classifier) Name() string { return "HSM" }

// Stats returns build statistics.
func (c *Classifier) Stats() BuildStats { return c.stats }

// MemoryBytes returns the serialized SRAM footprint.
func (c *Classifier) MemoryBytes() int { return c.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (c *Classifier) Image() *memlayout.Image { return c.image }

// worstCaseAccesses bounds lookup SRAM commands: the binary searches plus
// one class read per dimension plus the four table reads.
func (c *Classifier) worstCaseAccesses() int {
	total := rules.NumDims + 4
	for d := 0; d < rules.NumDims; d++ {
		total += ceilLog2(len(c.dims[d].segLo))
	}
	return total
}

func ceilLog2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
