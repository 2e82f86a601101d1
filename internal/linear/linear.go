// Package linear implements priority-ordered linear search, the reference
// classifier. It is the correctness oracle every other classifier is
// property-tested against, the paper's Figure 8 workload (throughput as a
// function of how many rules must be scanned per packet), and the model of
// what HiCuts does inside its leaves.
package linear

import (
	"repro/internal/memlayout"
	"repro/internal/nptrace"
	"repro/internal/rules"
	"repro/internal/ruletable"
)

// Classifier performs first-match linear search over a rule set.
type Classifier struct {
	rs *rules.RuleSet

	// Serialized image: the rule table as consecutive 6-word records on a
	// single SRAM channel.
	image   *memlayout.Image
	channel uint8
	base    uint32
}

// New builds a linear classifier and its serialized SRAM image on channel 0.
func New(rs *rules.RuleSet) *Classifier {
	return NewOnChannel(rs, 0)
}

// NewOnChannel builds the classifier with its rule table on the given SRAM
// channel.
func NewOnChannel(rs *rules.RuleSet, ch uint8) *Classifier {
	c := &Classifier{rs: rs, image: memlayout.NewImage(), channel: ch}
	c.base = c.image.Alloc(ch, ruletable.Encode(rs))
	return c
}

// Name identifies the algorithm in reports.
func (c *Classifier) Name() string { return "Linear" }

// Classify returns the index of the highest-priority matching rule, or -1.
func (c *Classifier) Classify(h rules.Header) int {
	return c.rs.Match(h)
}

// ClassifyBatch classifies hs[i] into out[i] (the
// rules.BatchClassifier contract; out must be at least as long as hs). Linear
// search is already allocation-free; the batch form only amortizes
// dispatch.
func (c *Classifier) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	for i, h := range hs {
		out[i] = c.rs.Match(h)
	}
}

// MemoryBytes returns the SRAM footprint: 6 words per rule.
func (c *Classifier) MemoryBytes() int { return c.image.TotalBytes() }

// Image exposes the serialized SRAM image.
func (c *Classifier) Image() *memlayout.Image { return c.image }

// Lookup runs the serialized lookup against mem, reading one 6-word record
// per rule until the first match — the access pattern the paper charges
// linear search with (N accesses × 6 words, §6.6).
func (c *Classifier) Lookup(mem nptrace.Mem, h rules.Header) int {
	costs := nptrace.DefaultCosts
	for i := 0; i < c.rs.Len(); i++ {
		mem.Compute(costs.IssueIO)
		rec := mem.Read(c.channel, c.base+uint32(i*ruletable.WordsPerRule), ruletable.WordsPerRule)
		mem.Compute(ruletable.CompareCycles)
		if ruletable.MatchRecord(rec, h) {
			return i
		}
	}
	return -1
}

// Program records the access program for one header.
func (c *Classifier) Program(h rules.Header) nptrace.Program {
	rec := nptrace.NewRecorder(c.image)
	return rec.Finish(c.Lookup(rec, h))
}
