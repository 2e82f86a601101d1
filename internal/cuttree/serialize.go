package cuttree

import (
	"fmt"
	"strings"

	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
	"repro/internal/ruletable"
)

// Serialized layout, one header word plus the pointer array:
//
//	word 0 (internal):  bit31 clear ‖ (ncuts-1)(1, bit 30) ‖
//	                    spec0(14, bits 16..29) ‖ spec1(14, bits 2..15)
//	                    where spec = dim(3) ‖ log2nc(5) ‖ log2cw(6)
//	words 1..cells:     child pointer words (memlayout pointer encoding;
//	                    leaf pointers here address leaf *nodes*, not rules)
//
//	word 0 (leaf):      bit31 set ‖ count(16)
//	words 1..:          rule indices in priority order, zero-padded to at
//	                    least binth entries so the lookup can fetch the
//	                    whole block with one fixed-size burst, the way
//	                    microcode does.
//
// Rule records live in a single shared rule table (6 words per rule,
// ruletable encoding) on one SRAM channel, as in the era's reference
// implementations. A leaf visit costs one fixed burst for the leaf block
// plus one 6-word read per stored rule on the rule-table channel — the
// paper's "binth times of memory accesses and each memory access refers to
// 6 consecutive 32-bit words" (§6.6). The microcode issues the whole batch
// unconditionally (no data-dependent early exit): deterministic per-packet
// budgets are what let threads be scheduled at line rate (§3.2).
const leafNodeFlag = uint32(1) << 31

func packSpec(c cut) uint32 {
	return uint32(c.dim)<<11 | uint32(c.log2nc)<<6 | uint32(c.log2cw)
}

func unpackSpec(v uint32) cut {
	return cut{dim: uint8(v >> 11 & 0x7), log2nc: uint8(v >> 6 & 0x1F), log2cw: uint8(v & 0x3F)}
}

func packInternal(n *node) uint32 {
	return uint32(n.ncuts-1)<<30 | packSpec(n.cuts[0])<<16 | packSpec(n.cuts[1])<<2
}

func unpackInternal(w uint32) (cuts [MaxCutDims]cut, n int) {
	cuts[0] = unpackSpec(w >> 16 & 0x3FFF)
	if w>>30&1 != 0 {
		return [MaxCutDims]cut{cuts[0], unpackSpec(w >> 2 & 0x3FFF)}, 2
	}
	return cuts, 1
}

// serialize lays the tree out across SRAM channels: tree levels are
// assigned to channels in proportion to bandwidth headroom (§5.3); the
// shared rule table goes on the last configured channel.
func (t *Tree) serialize() error {
	alloc, err := memlayout.AllocateLevels(memlayout.UniformDemand(t.stats.MaxDepth+1), t.cfg.Headroom, t.cfg.Channels)
	if err != nil {
		return err
	}
	t.image = memlayout.NewImage()
	t.ruleCh = uint8(t.cfg.Channels - 1)
	t.ruleBase = t.image.Alloc(t.ruleCh, ruletable.Encode(t.rs))
	t.rootPtr = t.place(t.root, 0, alloc)
	return nil
}

// place writes n and its subtree (depth first, each shared node once) and
// returns n's pointer word.
func (t *Tree) place(n *node, depth int, alloc memlayout.LevelAllocation) uint32 {
	if !n.placed {
		ch := alloc[depth]
		n.channel, n.placed = ch, true
		if n.leaf {
			n.addr = t.image.Reserve(ch, 1+max(len(n.ruleIdx), t.cfg.Binth))
			t.image.Set(ch, n.addr, leafNodeFlag|uint32(len(n.ruleIdx)))
			for i, ri := range n.ruleIdx {
				t.image.Set(ch, n.addr+1+uint32(i), uint32(ri))
			}
		} else {
			n.addr = t.image.Reserve(ch, 1+len(n.children))
			t.image.Set(ch, n.addr, packInternal(n))
			for i, c := range n.children {
				t.image.Set(ch, n.addr+1+uint32(i), t.place(c, depth+1, alloc))
			}
		}
	}
	return memlayout.NodePtr(n.channel, n.addr)
}

// Lookup runs the serialized lookup against mem, producing the access
// pattern the NP simulator replays.
func (t *Tree) Lookup(mem nptrace.Mem, h rules.Header) int {
	costs := nptrace.DefaultCosts
	ptr := t.rootPtr
	for {
		ch, off := memlayout.NodeAddr(ptr)
		if memlayout.IsLeaf(ptr) {
			panic("cuttree: leaf pointers are not used in the serialized tree")
		}
		mem.Compute(costs.IssueIO)
		w0 := mem.Read(ch, off, 1)[0]
		if w0&leafNodeFlag != 0 {
			return t.scanLeaf(mem, ch, off, int(w0&0xFFFF), h)
		}
		cuts, n := unpackInternal(w0)
		idx := uint32(0)
		for _, c := range cuts[:n] {
			mem.Compute(4 * costs.ALU) // extract field, shift, mask, add
			idx = idx<<c.log2nc | h.Field(rules.Dim(c.dim))>>c.log2cw&(1<<c.log2nc-1)
		}
		mem.Compute(costs.IssueIO)
		ptr = mem.Read(ch, off+1+idx, 1)[0]
	}
}

// scanLeaf performs the batched leaf linear search: fetch the fixed-size
// leaf block (already read word 0), then unconditionally fetch every stored
// rule record from the shared rule table, returning the highest-priority
// match.
func (t *Tree) scanLeaf(mem nptrace.Mem, ch uint8, off uint32, count int, h rules.Header) int {
	if count == 0 {
		return -1
	}
	// The leaf block burst covers binth slots; oversized (forced) leaves
	// need a follow-up read for the tail. Both blocks are read before any
	// record, so the ids are copied out of the reads.
	first := min(count, t.cfg.Binth)
	costs := nptrace.DefaultCosts
	var buf [16]uint32
	mem.Compute(costs.IssueIO)
	ids := append(buf[:0], mem.Read(ch, off+1, first)...)
	if count > first {
		mem.Compute(costs.IssueIO)
		ids = append(ids, mem.Read(ch, off+1+uint32(first), count-first)...)
	}
	match := -1
	for _, id := range ids {
		mem.Compute(costs.IssueIO)
		rec := mem.Read(t.ruleCh, t.ruleBase+id*ruletable.WordsPerRule, ruletable.WordsPerRule)
		mem.Compute(ruletable.CompareCycles)
		if match < 0 && ruletable.MatchRecord(rec, h) {
			match = int(rec[5])
		}
	}
	return match
}

// Program records the access program for one header.
func (t *Tree) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(t.image)
	return rec.Finish(t.Lookup(rec, h))
}

// Verify cross-checks the serialized lookup against the native tree walk
// for the given headers; any divergence is a serialization bug.
func (t *Tree) Verify(headers []rules.Header) error {
	mem := nptrace.NullMem{R: t.image}
	for _, h := range headers {
		if got, want := t.Lookup(mem, h), t.Classify(h); got != want {
			return fmt.Errorf("%s: serialized lookup %d != native %d for %v",
				strings.ToLower(t.cfg.Name), got, want, h)
		}
	}
	return nil
}
