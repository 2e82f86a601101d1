// Package nptrace captures per-packet *access programs*: the sequence of
// compute bursts and SRAM reads a classifier performs for one header. This
// is the bridge between the algorithms and the IXP2850 model — each
// classifier's serialized lookup runs against the Mem interface, and a
// Recorder turns that run into a replayable program whose cost the
// discrete-event simulator (internal/npsim) charges against microengines,
// threads and SRAM channels.
//
// The paper's methodology is exactly this split: algorithm behaviour
// determines how many word-oriented SRAM accesses a packet needs and on
// which channel; the NP's job is to hide their latency with hardware
// threads until a channel saturates (§6.7).
package nptrace

import "fmt"

// Mem is the memory interface serialized lookups run against. Read returns
// `words` consecutive 32-bit words starting at the word address addr on the
// given SRAM channel — one SRAM command, regardless of burst length (the
// IXP SRAM controller accepts multi-word bursts per command; both the word
// count and the command count are modelled, since the paper identifies both
// bandwidth and I/O command rate as bottlenecks).
//
// Compute accounts ME cycles spent between memory operations (ALU ops,
// POP_COUNT, branches).
type Mem interface {
	Read(ch uint8, addr uint32, words int) []uint32
	Compute(cycles uint32)
}

// Costs is the ME cycle cost model for the compute phases of a lookup,
// matching §5.4 of the paper.
type Costs struct {
	// PopCount is the cost of the hardware POP_COUNT instruction.
	PopCount uint32
	// PopCountRISC is the cost of emulating popcount with RISC ALU ops;
	// the paper reports >100 instructions. Used by the POP_COUNT ablation.
	PopCountRISC uint32
	// ALU is the cost of one ALU operation (shift, mask, add, compare).
	ALU uint32
	// Branch is the cost of a (possibly mispredicted) branch.
	Branch uint32
	// IssueIO is the ME-side cost of issuing one SRAM command.
	IssueIO uint32
}

// DefaultCosts follows the IXP2850 programmer's reference: POP_COUNT
// finishes in 3 cycles; simple ALU ops are single-cycle.
var DefaultCosts = Costs{
	PopCount:     3,
	PopCountRISC: 120,
	ALU:          1,
	Branch:       1,
	IssueIO:      2,
}

// Step is one memory access within a program, preceded by Compute cycles of
// ME work.
type Step struct {
	// Compute is the ME cycles spent before issuing this access.
	Compute uint32
	// Channel is the SRAM channel the access targets.
	Channel uint8
	// Addr is the word address (kept for debugging and address-pattern
	// analysis; the simulator charges only channel and word count).
	Addr uint32
	// Words is the burst length of the access in 32-bit words.
	Words uint16
}

// Program is the complete access program of one packet: alternating compute
// and memory phases, a final compute tail, and the classification result
// the run produced (used to cross-check simulated runs against native ones).
type Program struct {
	Steps        []Step
	FinalCompute uint32
	Result       int
}

// Accesses returns the number of SRAM commands in the program.
func (p *Program) Accesses() int { return len(p.Steps) }

// Words returns the total number of SRAM words transferred.
func (p *Program) Words() int {
	n := 0
	for i := range p.Steps {
		n += int(p.Steps[i].Words)
	}
	return n
}

// ComputeCycles returns the total ME compute cycles in the program.
func (p *Program) ComputeCycles() uint64 {
	n := uint64(p.FinalCompute)
	for i := range p.Steps {
		n += uint64(p.Steps[i].Compute)
	}
	return n
}

// String summarizes the program.
func (p *Program) String() string {
	return fmt.Sprintf("program{%d accesses, %d words, %d compute cycles, result %d}",
		p.Accesses(), p.Words(), p.ComputeCycles(), p.Result)
}

// Reader is the minimal raw-read interface a Recorder wraps; the memlayout
// Image satisfies it.
type Reader interface {
	Read(ch uint8, addr uint32, words int) []uint32
}

// Recorder implements Mem by delegating reads to an underlying Reader while
// recording the access program.
type Recorder struct {
	mem     Reader
	pending uint32
	steps   []Step
	buf     [recorderSteps]Step // steps' storage until a program outgrows it
}

// recorderSteps is how many steps a Recorder holds before its first
// allocation: more than an ExpCuts walk at w = 8 (26) or a typical HiCuts
// one, and as many as HSM's worst case on CR04 (40 single-word reads).
const recorderSteps = 40

// NewRecorder wraps mem for recording. The Recorder may be reused across
// packets via Finish, which resets it.
func NewRecorder(mem Reader) *Recorder {
	r := &Recorder{mem: mem}
	r.steps = r.buf[:0]
	return r
}

// Read records one SRAM command and returns the underlying words.
func (r *Recorder) Read(ch uint8, addr uint32, words int) []uint32 {
	r.steps = append(r.steps, Step{
		Compute: r.pending,
		Channel: ch,
		Addr:    addr,
		Words:   uint16(words),
	})
	r.pending = 0
	return r.mem.Read(ch, addr, words)
}

// Compute accumulates ME cycles to be attached to the next access (or to
// the program tail).
func (r *Recorder) Compute(cycles uint32) {
	r.pending += cycles
}

// Finish seals the program with the classification result and resets the
// recorder for the next packet. The program's steps are a copy sized once,
// to the steps recorded, so no two programs share storage.
func (r *Recorder) Finish(result int) Program {
	p := Program{FinalCompute: r.pending, Result: result}
	if len(r.steps) > 0 {
		p.Steps = append([]Step(nil), r.steps...)
	}
	r.steps = r.steps[:0]
	r.pending = 0
	return p
}

// NullMem implements Mem with zero-cost compute over a Reader; used for
// functional verification of serialized lookups without recording overhead.
type NullMem struct {
	R Reader
}

// Read delegates to the underlying reader.
func (n NullMem) Read(ch uint8, addr uint32, words int) []uint32 {
	return n.R.Read(ch, addr, words)
}

// Compute discards the cycle count.
func (NullMem) Compute(uint32) {}
