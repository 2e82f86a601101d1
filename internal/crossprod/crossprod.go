// Package crossprod is the cross-producting core of the field-independent
// schemes in the paper's taxonomy (§2), HSM and RFC. Both map each header
// projection to equivalence classes in phase 0, then combine class IDs
// pairwise through cross-product tables along a fixed reduction plan until
// a final table yields the matching rule. The core owns the class sweep,
// the table reduction, the SRAM layout of the combine tables, both combine
// walks and the build governance; an algorithm brings only its
// projections, the form of its phase-0 tables (a Phase0) and its plan.
//
// Each equivalence class is the bitset of rules matching a region; the
// final table stores the lowest set bit (the highest-priority rule) + 1,
// with 0 for no match.
package crossprod

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/buildgov"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
)

// Config parameterizes a build; HSM's and RFC's Config are this type.
type Config struct {
	// Channels is the number of SRAM channels the tables are spread
	// across (1..4; zero means all four).
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

// MaxFamilies bounds the class families of one walk: the phase-0
// projections plus the tables of the plan.
const MaxFamilies = 16

// IDs holds one header's class IDs, one per family: the phase-0 IDs in
// projection order, then each table's result in plan order.
type IDs [MaxFamilies]uint32

// Phase0 is an algorithm's first phase: the tables that map each
// projection of a header to its class ID.
type Phase0 interface {
	// Place allocates the phase-0 tables in img, each on the channel
	// spot returns.
	Place(img *memlayout.Image, spot func() uint8)
	// Classify performs the native lookup of h: its phase-0 class IDs in
	// projection order, then tabs.Combine. The IDs stay on its stack.
	Classify(h rules.Header, tabs Tables) int
	// Lookup returns the phase-0 class IDs of h read through mem from
	// where Place put the tables (the serialized walk).
	Lookup(mem nptrace.Mem, h rules.Header) IDs
}

// Place is where a table landed in the SRAM image.
type Place struct {
	Ch   uint8
	Base uint32
}

// Read reads word idx of the table at p through mem, charging the index's
// multiply-accumulate and the issue of one single-word read.
func (p Place) Read(mem nptrace.Mem, idx uint32) uint32 {
	mem.Compute(2*nptrace.DefaultCosts.ALU + nptrace.DefaultCosts.IssueIO)
	return mem.Read(p.Ch, p.Base+idx, 1)[0]
}

// Segments splits [0, max] at every span's Lo and Hi+1 into the maximal
// intervals inside which the set of spans covering a value is constant,
// and returns their starts: sorted, distinct, the first 0. Segment i ends
// where segment i+1 starts, the last at max.
func Segments(spans []rules.Span, max uint32) []uint32 {
	starts := make([]uint32, 1, 2*len(spans)+1)
	for _, sp := range spans {
		starts = append(starts, sp.Lo)
		if sp.Hi < max {
			starts = append(starts, sp.Hi+1)
		}
	}
	slices.Sort(starts)
	return slices.Compact(starts)
}

// Builder is one build in progress: phase-0 sweeps, then Finish.
type Builder struct {
	name     string
	cfg      Config
	rs       *rules.RuleSet
	gov      *buildgov.Governor
	scratch  bitset.Set
	families [][]bitset.Set
}

// Start validates cfg and rs and starts the build of rs by the algorithm
// name ("hsm", the prefix of its errors) under governance: the sweeps and
// cross-producting loops cooperatively check ctx and charge rows and
// estimated table bytes against budget (nil = ctx only).
func Start(ctx context.Context, name string, rs *rules.RuleSet, cfg Config, budget *buildgov.Budget) (*Builder, error) {
	cfg.Channels = cmp.Or(cfg.Channels, memlayout.NumChannels)
	cfg.MaxTableEntries = cmp.Or(cfg.MaxTableEntries, DefaultConfig().MaxTableEntries)
	if cfg.Channels < 1 || cfg.Channels > memlayout.NumChannels {
		return nil, fmt.Errorf("%s: channels %d out of [1,%d]", name, cfg.Channels, memlayout.NumChannels)
	}
	if cfg.MaxTableEntries < 0 {
		return nil, fmt.Errorf("%s: table cap %d is negative", name, cfg.MaxTableEntries)
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return &Builder{name: name, cfg: cfg, rs: rs, gov: buildgov.Start(ctx, budget), scratch: bitset.New(rs.Len())}, nil
}

// Bytes charges n estimated heap bytes, such as a phase-0 table about to
// be allocated.
func (b *Builder) Bytes(n int64) error { return b.gov.Bytes(n) }

// Sweep projects every rule through proj onto [0, max], splits the domain
// into Segments and maps each segment to the class of the rules covering
// it. It returns the segment starts and their class IDs; the classes
// become the next family.
func (b *Builder) Sweep(proj func(*rules.Rule) rules.Span, max uint32) ([]uint32, []uint32, error) {
	spans := make([]rules.Span, b.rs.Len())
	for i := range b.rs.Rules {
		spans[i] = proj(&b.rs.Rules[i])
	}
	starts := Segments(spans, max)
	ids := make([]uint32, len(starts))
	in := bitset.NewInterner()
	for i, lo := range starts {
		// Each segment costs an O(rules) sweep plus its class bitset:
		// one governed row. No span ends inside a segment, so a rule
		// covers it if it contains its start.
		if err := b.gov.Nodes(1, int64(len(spans)/8)+16); err != nil {
			return nil, nil, err
		}
		clear(b.scratch)
		for ri, sp := range spans {
			if sp.Contains(lo) {
				b.scratch.Add(ri)
			}
		}
		ids[i] = in.Intern(b.scratch)
	}
	b.families = append(b.families, in.Classes())
	return starts, ids, nil
}

// table is one combine table: data[a*nB+b] for the classes a and b of the
// families it crosses, its result family dst.
type table struct {
	a, b, dst uint8
	nB        uint32
	data      []uint32
	at        Place
}

// Classifier is a built cross-producting classifier.
type Classifier struct {
	name  string
	p0    Phase0
	tabs  Tables
	image *memlayout.Image
}

// Finish crosses the families along plan, which names for each table the
// two families it crosses, numbered as in IDs: each table's classes become
// the next family and the last table stores rule index + 1. It then lays
// out p0's tables and after them the combine tables in plan order,
// round-robin over the channels. It returns the classifier and the class
// count of every family but the last table's.
func (b *Builder) Finish(p0 Phase0, plan [][2]uint8) (*Classifier, []int, error) {
	c := &Classifier{name: b.name, p0: p0}
	for i, p := range plan {
		a, bs := b.families[p[0]], b.families[p[1]]
		if len(a)*len(bs) > b.cfg.MaxTableEntries {
			return nil, nil, fmt.Errorf("%s: table %d of %d (%d×%d) exceeds cap %d entries",
				b.name, i+1, len(plan), len(a), len(bs), b.cfg.MaxTableEntries)
		}
		t, classes, err := b.cross(a, bs, i == len(plan)-1)
		if err != nil {
			return nil, nil, err
		}
		t.a, t.b, t.dst = p[0], p[1], uint8(len(b.families))
		c.tabs = append(c.tabs, t)
		b.families = append(b.families, classes)
	}
	sizes := make([]int, len(b.families)-1)
	for i := range sizes {
		sizes[i] = len(b.families[i])
	}

	c.image = memlayout.NewImage()
	next := 0 // tables go round-robin over the channels
	spot := func() uint8 { next++; return uint8((next - 1) % b.cfg.Channels) }
	p0.Place(c.image, spot)
	for i := range c.tabs {
		ch := spot()
		c.tabs[i].at = Place{ch, c.image.Alloc(ch, c.tabs[i].data)}
	}
	return c, sizes, nil
}

// cross builds the table crossing the class families a and b: into their
// interned intersection classes, or for the final table straight to rule
// index + 1 (0 = no match).
func (b *Builder) cross(a, bs []bitset.Set, final bool) (table, []bitset.Set, error) {
	// Charge the table before allocating it.
	if err := b.gov.Bytes(int64(len(a)) * int64(len(bs)) * 4); err != nil {
		return table{}, nil, err
	}
	t := table{nB: uint32(len(bs)), data: make([]uint32, len(a)*len(bs))}
	in := bitset.NewInterner()
	for i, sa := range a {
		if err := b.gov.Nodes(1, 0); err != nil {
			return table{}, nil, err
		}
		for j, sb := range bs {
			// Per-cell poll keeps deadline overshoot at cell granularity
			// even when rows are tens of thousands of cells wide.
			if err := b.gov.Check(); err != nil {
				return table{}, nil, err
			}
			bitset.AndInto(b.scratch, sa, sb)
			if final {
				t.data[i*len(bs)+j] = uint32(b.scratch.First() + 1)
			} else {
				t.data[i*len(bs)+j] = in.Intern(b.scratch)
			}
		}
	}
	if final {
		return t, nil, nil
	}
	// Interned intersection classes are this phase's memo table.
	if err := b.gov.Memo(in.Len(), int64(in.Len())*int64(b.rs.Len()/8+16)); err != nil {
		return table{}, nil, err
	}
	return t, in.Classes(), nil
}

// Tables are the combine tables of a plan, in plan order.
type Tables []table

// Combine finishes the native lookup of one header from its phase-0 class
// IDs in v, writing each table's result into v.
func (tabs Tables) Combine(v *IDs) int {
	var r uint32
	for i := range tabs {
		t := &tabs[i]
		// The masks drop the bounds checks: family numbers are below
		// MaxFamilies by construction.
		r = t.data[v[t.a%MaxFamilies]*t.nB+v[t.b%MaxFamilies]]
		v[t.dst%MaxFamilies] = r
	}
	return int(r) - 1
}

// Classify performs the native lookup.
func (c *Classifier) Classify(h rules.Header) int { return c.p0.Classify(h, c.tabs) }

// ClassifyBatch classifies hs[i] into out[i] (the rules.BatchClassifier
// contract; out must be at least as long as hs). It allocates nothing.
func (c *Classifier) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = c.Classify(h)
	}
}

// Lookup runs the serialized lookup against mem: the phase-0 reads, then
// one single-word read per combine table.
func (c *Classifier) Lookup(mem nptrace.Mem, h rules.Header) int {
	v := c.p0.Lookup(mem, h)
	for _, t := range c.tabs {
		v[t.dst] = t.at.Read(mem, v[t.a]*t.nB+v[t.b])
	}
	return int(v[c.tabs[len(c.tabs)-1].dst]) - 1
}

// Program records the access program for one header.
func (c *Classifier) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(c.image)
	return rec.Finish(c.Lookup(rec, h))
}

// Verify cross-checks the serialized lookup against the native batch walk.
func (c *Classifier) Verify(headers []rules.Header) error {
	want := make([]int, len(headers))
	c.ClassifyBatch(headers, want)
	for i, h := range headers {
		if got := c.Lookup(nptrace.NullMem{R: c.image}, h); got != want[i] {
			return fmt.Errorf("%s: serialized lookup %d != native %d for %v", c.name, got, want[i], h)
		}
	}
	return nil
}

// Name identifies the algorithm in reports.
func (c *Classifier) Name() string { return strings.ToUpper(c.name) }

// MemoryBytes returns the serialized SRAM footprint.
func (c *Classifier) MemoryBytes() int { return c.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (c *Classifier) Image() *memlayout.Image { return c.image }
