package expcuts

import (
	"fmt"

	"repro/internal/bitstring"
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
)

// Serialized node format (aggregated, Figure 4 of the paper adapted to a
// fixed stride):
//
//	word 0:  HABS bit string (2^v significant bits)
//	word 1+: CPA — one 2^u-pointer sub-array per set HABS bit
//
// The cutting information of the paper's node word (dimension, stride) is
// implicit here because the stride is fixed and the level determines the key
// bits — that is the "explicit" in Explicit Cuttings. A level therefore
// costs exactly two single-word SRAM reads: the HABS word and the indexed
// CPA pointer. Leaves are encoded in pointer words (memlayout.LeafPtr), so
// they cost nothing: the final CPA read *is* the classification result.
//
// serialize lays the tree out through place, each node as its HABS word and
// CPA, encoded into one reused buffer (the image copies the words).
func (t *Tree) serialize() error {
	var words []uint32
	image, root, err := t.place(func(row []uint32) (_ []uint32, err error) {
		words, err = bitstring.AppendHABS(words[:0], row, t.cfg.StrideW, t.cfg.HabsV)
		return words, err
	})
	if err != nil {
		return err
	}
	t.image, t.rootPtr = image, root
	t.stats.MemoryWordsAggregated = image.TotalWords()
	return nil
}

// place lays the graph out in a new image and returns it with the root's
// pointer word. Levels go onto SRAM channels per the headroom allocation
// (§5.3, Table 4), deepest level first so child pointers exist when their
// parents are written, and within a level in id order. Each node's runs are
// expanded into one reused row of 2^w pointer words, which encode turns
// into the words stored for the node (the image copies them). A counting
// pass first encodes each node over its child refs, which are equal where
// the pointer words will be, so each channel is sized once rather than
// regrown node by node.
func (t *Tree) place(encode func(row []uint32) ([]uint32, error)) (*memlayout.Image, uint32, error) {
	depth := t.Depth()
	alloc, err := memlayout.AllocateLevels(memlayout.UniformDemand(depth), t.cfg.Headroom, t.cfg.Channels)
	if err != nil {
		return nil, 0, err
	}
	image := memlayout.NewImage()
	addrs := make([]uint32, len(t.nodes))
	// ptr converts a reference to its pointer word. A node must already be
	// placed, which deepest-first order guarantees.
	ptr := func(r ref) uint32 {
		if r < 0 {
			return memlayout.LeafPtr(decodeRef(r))
		}
		return addrs[r]
	}
	row := make([]uint32, 1<<t.cfg.StrideW)
	// expand writes node id's runs into row, each cell as word(its ref),
	// and encodes it.
	expand := func(id ref, word func(ref) uint32) ([]uint32, error) {
		first := 0
		for _, rn := range t.nodes[id].runs {
			p := word(rn.ref)
			for c := first; c < int(rn.end); c++ {
				row[c] = p
			}
			first = int(rn.end)
		}
		words, err := encode(row)
		if err != nil {
			return nil, fmt.Errorf("expcuts: encoding node %d: %w", id, err)
		}
		return words, nil
	}
	byLevel := make([][]ref, depth)
	var sized [memlayout.NumChannels]int
	for id, n := range t.nodes {
		byLevel[n.level] = append(byLevel[n.level], ref(id))
		words, err := expand(ref(id), func(r ref) uint32 { return uint32(r) })
		if err != nil {
			return nil, 0, err
		}
		sized[alloc[n.level]] += len(words)
	}
	for ch, n := range sized {
		image.Grow(uint8(ch), n)
	}
	for level := depth - 1; level >= 0; level-- {
		ch := alloc[level]
		for _, id := range byLevel[level] {
			words, err := expand(id, ptr)
			if err != nil {
				return nil, 0, err
			}
			addrs[id] = memlayout.NodePtr(ch, image.Alloc(ch, words))
		}
	}
	if image.ChannelWords() != sized {
		return nil, 0, fmt.Errorf("expcuts: sized channels at %v words, placed %v", sized, image.ChannelWords())
	}
	return image, ptr(t.root), nil
}

// Lookup runs the serialized lookup against mem: per level, one HABS-word
// read, the POP_COUNT decode, and one CPA pointer read.
func (t *Tree) Lookup(mem nptrace.Mem, h rules.Header) int {
	return t.LookupCosts(mem, h, nptrace.DefaultCosts)
}

// LookupCosts is Lookup with an explicit cycle-cost model. Substituting
// Costs.PopCountRISC for Costs.PopCount reproduces the paper's §5.4
// instruction-selection ablation (a software popcount takes >100 RISC
// instructions per level).
func (t *Tree) LookupCosts(mem nptrace.Mem, h rules.Header, costs nptrace.Costs) int {
	w, v := t.cfg.StrideW, t.cfg.HabsV
	u := w - v
	k := h.Key()
	ptr := t.rootPtr
	pos := uint(0)
	for !memlayout.IsLeaf(ptr) {
		ch, off := memlayout.NodeAddr(ptr)
		mem.Compute(costs.ALU + costs.IssueIO) // extract key chunk, issue
		habs := mem.Read(ch, off, 1)[0]
		n := k.Bits(pos, w)
		m := n >> u
		j := n & (1<<u - 1)
		// AND off the high bits, POP_COUNT, form the CPA index (§5.4).
		mem.Compute(costs.ALU + costs.PopCount + 2*costs.ALU + costs.IssueIO)
		i := uint32(bitstring.Rank(habs, uint(m))) - 1
		ptr = mem.Read(ch, off+1+i<<u+j, 1)[0]
		pos += w
	}
	return memlayout.LeafRule(ptr)
}

// Program records the access program for one header.
func (t *Tree) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(t.image)
	return rec.Finish(t.Lookup(rec, h))
}

// ProgramCosts records the access program under an explicit cost model.
func (t *Tree) ProgramCosts(h rules.Header, costs nptrace.Costs) nptrace.Program {
	rec := nptrace.NewRecorder(t.image)
	return rec.Finish(t.LookupCosts(rec, h, costs))
}

// Verify cross-checks the serialized lookup against the native tree walk.
func (t *Tree) Verify(headers []rules.Header) error {
	mem := nptrace.NullMem{R: t.image}
	for _, h := range headers {
		if got, want := t.Lookup(mem, h), t.Classify(h); got != want {
			return fmt.Errorf("expcuts: serialized lookup %d != native %d for %v", got, want, h)
		}
	}
	return nil
}

// FullTree is the un-aggregated serialization of an ExpCuts tree: every
// internal node stores its raw 2^w pointer array, so a level costs a single
// SRAM read but the footprint is the "without aggregation" bar of Figure 6
// — too large for the SRAM chips on the larger rule sets.
type FullTree struct {
	t       *Tree
	image   *memlayout.Image
	rootPtr uint32
}

// Full serializes the un-aggregated variant of the tree.
func (t *Tree) Full() (*FullTree, error) {
	image, root, err := t.place(func(row []uint32) ([]uint32, error) { return row, nil })
	if err != nil {
		return nil, err
	}
	return &FullTree{t: t, image: image, rootPtr: root}, nil
}

// MemoryBytes returns the un-aggregated footprint.
func (f *FullTree) MemoryBytes() int { return f.image.TotalBytes() }

// Image exposes the serialized image.
func (f *FullTree) Image() *memlayout.Image { return f.image }

// Lookup runs the un-aggregated serialized lookup: one pointer read per
// level.
func (f *FullTree) Lookup(mem nptrace.Mem, h rules.Header) int {
	costs := nptrace.DefaultCosts
	w := f.t.cfg.StrideW
	k := h.Key()
	ptr := f.rootPtr
	pos := uint(0)
	for !memlayout.IsLeaf(ptr) {
		ch, off := memlayout.NodeAddr(ptr)
		mem.Compute(2*costs.ALU + costs.IssueIO)
		ptr = mem.Read(ch, off+k.Bits(pos, w), 1)[0]
		pos += w
	}
	return memlayout.LeafRule(ptr)
}

// Program records the access program for one header.
func (f *FullTree) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(f.image)
	return rec.Finish(f.Lookup(rec, h))
}
