// Package buildgov governs classifier *construction* the way the engine
// governs classification: with explicit, enforced resource bounds. The
// decision-tree and cross-producting builders in this repository are
// super-linear in rule overlap — an adversarial or merely unlucky rule set
// can blow up node counts, memoization tables, resident memory and build
// time by orders of magnitude (the failure surface of the whole
// HiCuts/HyperCuts/ExpCuts family). A serving process that rebuilds
// classifiers from untrusted or machine-generated rule feeds therefore
// needs every build to terminate in bounded time with bounded memory, no
// matter what the rule set looks like.
//
// Go offers no preemptive way to stop a runaway computation or cap a
// goroutine's heap, so governance is *cooperative*: builders thread a
// *Governor through their build loops and charge every node, memoization
// entry and estimated heap byte against a Budget. The first limit crossed
// — or context cancellation, or the wall-clock deadline — makes every
// subsequent Governor call return a typed *BudgetError (wrapping
// ErrBudgetExceeded) carrying the partial consumption stats, and the
// builder unwinds. Because the builders charge work at least once per
// node / table row, a tripped build aborts within a bounded amount of
// additional work, not at some unbounded future point.
//
// A Governor is safe for concurrent use: the parallel subtree builders
// (expcuts, hicuts) share one governor across their worker pool, so the
// budget bounds the build's *total* consumption, not per-worker slices.
// Charges are atomic — nothing is lost or double-counted under
// concurrency — and the first trip is sticky for every worker, which is
// what unwinds a fanned-out build promptly when any one worker crosses a
// limit.
//
// Byte accounting is an estimate, not an os-level cap: builders charge
// the sizes of the structures they allocate (see each builder's
// estimatedNodeBytes accounting and DESIGN.md for how node counts map to
// serialized memlayout words). The estimate deliberately under-counts
// small fixed overheads and is meant for "tens of megabytes vs gigabytes"
// discrimination, which is what keeps a process alive.
package buildgov

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrBudgetExceeded is the sentinel every budget violation wraps. Callers
// tell budget trips (deterministic: the same build would trip the same
// limit) from other build failures with errors.Is(err, ErrBudgetExceeded).
var ErrBudgetExceeded = errors.New("buildgov: build budget exceeded")

// Budget bounds one classifier build. The zero value of any field means
// "unlimited" for that axis; a nil *Budget governs nothing but still
// honors context cancellation.
type Budget struct {
	// Timeout is the wall-clock bound on the build, measured from
	// Start. It combines with any deadline already on the context
	// (whichever expires first wins).
	Timeout time.Duration
	// MaxNodes bounds tree nodes / table rows charged via Nodes.
	MaxNodes int
	// MaxHeapBytes bounds the builder's own estimate of live allocated
	// bytes charged via Bytes (see the package comment on accuracy).
	MaxHeapBytes int64
	// MaxMemoEntries bounds memoization/interning entries charged via
	// Memo — the hidden multiplier of sharing-based builders.
	MaxMemoEntries int
	// Events, when non-nil, receives one EventBudgetTrip flight-recorder
	// entry the moment any limit trips (once per build; the error is
	// sticky). Off the metered path: builders never touch it, only trip
	// does.
	Events *obs.Ring
}

// Stats is the partial consumption snapshot carried by a BudgetError and
// exposed by Governor.Stats.
type Stats struct {
	// Nodes, HeapBytes and MemoEntries are the amounts charged so far.
	Nodes       int
	HeapBytes   int64
	MemoEntries int
	// Elapsed is the wall-clock time since Start at snapshot time.
	Elapsed time.Duration
}

// String renders the snapshot compactly for error messages and logs.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d heap≈%dB memo=%d elapsed=%v",
		s.Nodes, s.HeapBytes, s.MemoEntries, s.Elapsed.Round(time.Millisecond))
}

// BudgetError reports which limit a build crossed and what it had
// consumed when it unwound. It wraps ErrBudgetExceeded (and the context
// error, when the trip came from cancellation or a deadline).
type BudgetError struct {
	// Limit names the axis that tripped: "nodes", "heap-bytes",
	// "memo-entries", "deadline" or "canceled".
	Limit string
	// Stats is the partial consumption at trip time.
	Stats Stats
	// Cause is non-nil when the trip came from the context.
	Cause error
}

// Error implements error.
func (e *BudgetError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("buildgov: build aborted (%s) after %s: %v", e.Limit, e.Stats, e.Cause)
	}
	return fmt.Sprintf("buildgov: %s budget exceeded after %s", e.Limit, e.Stats)
}

// Unwrap lets errors.Is see both ErrBudgetExceeded and any context error.
func (e *BudgetError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrBudgetExceeded, e.Cause}
	}
	return []error{ErrBudgetExceeded}
}

// checkStride is how many Check calls may pass between wall-clock /
// context polls. Builders call Check at least once per node or table
// cell, so a tripped deadline is noticed within 8 units of per-node work
// per worker. The stride is deliberately small: a time.Now/ctx.Err pair
// costs ~100ns while a node's worth of build work costs microseconds to
// milliseconds, and the robustness suite asserts cancellation within 2x
// the deadline even under the race detector's ~10x slowdown.
const checkStride = 8

// Governor meters one build against a Budget. It is safe for concurrent
// use: a parallel build's workers share one governor, so the budget is
// charged exactly across all of them (atomic counters, no lost or
// double-counted charges). All methods are nil-receiver safe and then do
// nothing, so ungoverned entry points pass nil straight through.
//
// Once any limit trips the error is sticky: every later Check/charge call
// — from any goroutine — returns the same *BudgetError, so a fanned-out
// build unwinds all of its workers promptly even if intermediate frames
// ignore one error.
type Governor struct {
	ctx      context.Context
	budget   Budget
	start    time.Time
	deadline time.Time // zero when unbounded
	ctxOwned bool      // deadline was adopted from ctx, not the budget

	nodes       atomic.Int64
	heapBytes   atomic.Int64
	memoEntries atomic.Int64
	ticks       atomic.Uint64
	err         atomic.Pointer[BudgetError]
}

// Start begins metering a build. A nil budget yields a governor that only
// watches ctx (cancellation still aborts the build); a nil result is
// never returned, so builders need no nil checks beyond what the methods
// already do.
func Start(ctx context.Context, b *Budget) *Governor {
	g := &Governor{ctx: ctx, start: time.Now()}
	if b != nil {
		g.budget = *b
		if b.Timeout > 0 {
			g.deadline = g.start.Add(b.Timeout)
		}
	}
	if d, ok := ctx.Deadline(); ok && (g.deadline.IsZero() || d.Before(g.deadline)) {
		g.deadline = d
		g.ctxOwned = true
	}
	return g
}

// Check polls cancellation and the wall-clock deadline (amortized: the
// expensive time/context reads run every checkStride calls per governor,
// and always on the first). Builders call it at the top of every build
// loop iteration.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if e := g.err.Load(); e != nil {
		return e
	}
	if t := g.ticks.Add(1); (t-1)%checkStride == 0 {
		if err := g.ctx.Err(); err != nil {
			return g.trip("canceled", err)
		}
		if !g.deadline.IsZero() && time.Now().After(g.deadline) {
			// When the deadline was the context's, carry its error so
			// errors.Is(err, context.DeadlineExceeded) holds even if the
			// wall-clock check wins the race against ctx.Err().
			var cause error
			if g.ctxOwned {
				cause = context.DeadlineExceeded
			}
			return g.trip("deadline", cause)
		}
	}
	return nil
}

// Nodes charges n tree nodes (or table rows) plus their estimated bytes,
// and polls like Check.
func (g *Governor) Nodes(n int, estBytes int64) error {
	if g == nil {
		return nil
	}
	if err := g.Check(); err != nil {
		return err
	}
	nodes := g.nodes.Add(int64(n))
	heap := g.heapBytes.Add(estBytes)
	if g.budget.MaxNodes > 0 && nodes > int64(g.budget.MaxNodes) {
		return g.trip("nodes", nil)
	}
	return g.checkBytes(heap)
}

// Memo charges n memoization entries plus their estimated key bytes.
func (g *Governor) Memo(n int, estBytes int64) error {
	if g == nil {
		return nil
	}
	if err := g.Check(); err != nil {
		return err
	}
	memo := g.memoEntries.Add(int64(n))
	heap := g.heapBytes.Add(estBytes)
	if g.budget.MaxMemoEntries > 0 && memo > int64(g.budget.MaxMemoEntries) {
		return g.trip("memo-entries", nil)
	}
	return g.checkBytes(heap)
}

// Bytes charges estimated heap bytes (e.g. a cross-product table about to
// be allocated). Charging *before* the allocation lets a builder refuse
// an absurd table without ever holding it.
func (g *Governor) Bytes(n int64) error {
	if g == nil {
		return nil
	}
	if err := g.Check(); err != nil {
		return err
	}
	return g.checkBytes(g.heapBytes.Add(n))
}

func (g *Governor) checkBytes(heap int64) error {
	if g.budget.MaxHeapBytes > 0 && heap > g.budget.MaxHeapBytes {
		return g.trip("heap-bytes", nil)
	}
	return nil
}

// Err returns the sticky budget error, or nil while the build is within
// budget.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	if e := g.err.Load(); e != nil {
		return e
	}
	return nil
}

// Stats snapshots consumption so far. Under concurrency the three
// counters are read independently (each is exact; the triple is not a
// single atomic snapshot, which only matters to sub-microsecond races in
// log output).
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		Nodes:       int(g.nodes.Load()),
		HeapBytes:   g.heapBytes.Load(),
		MemoEntries: int(g.memoEntries.Load()),
		Elapsed:     time.Since(g.start),
	}
}

// trip installs the sticky error. Concurrent trips race benignly: the
// first CompareAndSwap wins and every caller — including the losers —
// returns the single winning *BudgetError, preserving the "same sticky
// error from every method" contract across goroutines.
func (g *Governor) trip(limit string, cause error) error {
	e := &BudgetError{Limit: limit, Stats: g.Stats(), Cause: cause}
	if g.err.CompareAndSwap(nil, e) {
		// Only the winning trip records, so one aborted build is one event
		// no matter how many workers observed the sticky error.
		g.budget.Events.Recordf(obs.EventBudgetTrip, "build aborted: %s limit after %s", limit, e.Stats)
	}
	return g.err.Load()
}
