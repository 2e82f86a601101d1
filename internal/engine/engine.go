// Package engine is a native Go classification runtime that mirrors the
// programming challenges of §3.2 of the paper with real goroutines instead
// of microengine threads: a dispatcher feeds batches of packets to serving
// lanes ("thread groups") through bounded rings, lanes classify
// concurrently, and a sequencer restores arrival order using sequence
// numbers — the paper's third challenge, "maintaining packet ordering in
// spite of parallel processing ... using sequence numbers and/or strict
// thread ordering". What moves between the stages is a pointer to the
// batch; a Result is assembled only as it is handed to emit.
//
// Beyond the happy path, the engine is a hardened serving layer: a
// classifier panic is contained to the packet that triggered it and
// surfaced as a Result error instead of a crashed lane, a per-run
// context carries deadlines and cancellation, and overload can either
// exert back-pressure (block) or tail-drop with shed accounting — the
// software analogue of the NP dropping frames when the receive ring
// overflows.
//
// The NP cycle model lives in internal/npsim; this package is the
// software-parallel counterpart used by applications that want to classify
// on a general-purpose host (goroutines approximate the NP's thread-level
// parallelism at far lower fidelity, but with identical semantics).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/rules"
)

// Classifier is the lookup the engine parallelizes (rules.Classifier). A
// classifier that also implements rules.BatchClassifier is handed whole
// batches, which amortizes per-packet dispatch cost; one without it is
// served by a per-packet loop.
type Classifier = rules.Classifier

// AutoPipelineGroup is a GOMAXPROCS-derived stage group size for the
// ExpCuts staged walk (internal/expcuts/pipeline.go): a full default batch
// per group on a single core, shrinking as cores multiply. The engine does
// not use it; it is kept only for the benchmark's
// expcuts.pipelined_ns_per_pkt ledger row.
func AutoPipelineGroup() int {
	g := DefaultBatchSize / runtime.GOMAXPROCS(0)
	if g < 8 {
		g = 8
	}
	return g
}

// OverloadPolicy selects what the dispatcher does when the ring is full.
type OverloadPolicy int

const (
	// OverloadBlock exerts back-pressure: the dispatcher waits for ring
	// space. No packet is ever dropped; ingestion slows to lookup speed.
	OverloadBlock OverloadPolicy = iota
	// OverloadShed tail-drops: a packet arriving at a full ring is shed
	// immediately — emitted with ErrShed and counted in Stats.Shed —
	// like an NP receive ring overflowing at line rate.
	OverloadShed
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	}
	return fmt.Sprintf("OverloadPolicy(%d)", int(p))
}

// Config parameterizes the engine.
type Config struct {
	// QueueDepth bounds the dispatch ring (back-pressure).
	QueueDepth int
	// PreserveOrder, when set, re-sequences results into arrival order
	// before they are emitted.
	PreserveOrder bool
	// Overload selects block (default) or tail-drop shedding when the
	// dispatch ring is full. Note that OverloadShed combined with
	// PreserveOrder can grow the reorder buffer: shed markers complete
	// instantly and wait there for the slow packets that caused the
	// shedding. Heavy shedders should run unordered.
	Overload OverloadPolicy
	// BatchSize is how many packets one dispatch carries. Every channel
	// operation — dispatch, shed, result delivery — moves a whole batch,
	// so the per-packet synchronization cost is amortized by this factor.
	// 0 means DefaultBatchSize; 1 reproduces the per-packet dispatch of
	// the pre-batching engine (the benchmark's engine.batch1_ns_per_pkt
	// row). Shedding and cancellation-overtake happen at batch
	// granularity; ordering, accounting and panic attribution stay exact
	// per packet.
	BatchSize int
	// Shards is the number of flow-affinity serving shards; 0 defaults to
	// runtime.GOMAXPROCS(0). Packets are dispatched by a 5-tuple flow hash
	// so every flow lands on one shard, each shard runs a private serving
	// loop the way each microengine runs its own thread group (no
	// cross-core mutable sharing on the hot path), and a single
	// cross-shard sequencer restores arrival order. Semantics — ordered
	// emission, shed/cancel accounting, per-packet panic attribution — are
	// identical at any shard count; see shard.go.
	Shards int
	// FlowCacheFlows, when > 0, gives each shard a private exact-match
	// flow cache (8-way sets, internal/flowcache) of this many flows in
	// front of the classifier. A full set caches a flow only on its
	// second miss, so flows seen once do not evict hot ones. Per-shard
	// privacy means no cache synchronization and no cross-core cache-line
	// bouncing; flow-hash dispatch guarantees all packets of a flow see
	// the same shard's cache. When the classifier exposes rule-set
	// generations (update.Manager), each shard invalidates its cache on
	// generation change and guarantees no batch mixes results from two
	// generations. 0 disables caching.
	FlowCacheFlows int
	// Metrics, when non-nil, attaches the engine's observability block
	// (see NewMetrics): serving loops record per-shard counters and
	// histograms at batch granularity — never per packet, never with a
	// lock, never allocating. One Metrics may be shared across sequential
	// and concurrent runs; counters accumulate, which is what a scrape
	// endpoint wants. Nil disables instrumentation entirely at the cost
	// of one pointer test per batch.
	Metrics *Metrics
}

// DefaultBatchSize is the packets-per-dispatch default. 64 packets is
// large enough to make channel operations disappear from profiles and
// small enough that per-shard batch buffers stay inside the L1 cache.
const DefaultBatchSize = 64

// MaxBatchSize bounds BatchSize; beyond this the batch buffers stop
// fitting caches and shed/cancel granularity gets needlessly coarse.
const MaxBatchSize = 1 << 16

// DefaultConfig serves with ordering on, blocking back-pressure, a
// 256-batch ring per shard and 64-packet batches; Shards is left to
// default to GOMAXPROCS.
func DefaultConfig() Config {
	return Config{QueueDepth: 256, PreserveOrder: true, BatchSize: DefaultBatchSize}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.BatchSize == 0 {
		c.BatchSize = d.BatchSize
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("engine: queue depth must be >= 1, got %d", c.QueueDepth)
	}
	if c.BatchSize < 1 || c.BatchSize > MaxBatchSize {
		return fmt.Errorf("engine: batch size %d out of [1,%d]", c.BatchSize, MaxBatchSize)
	}
	if c.Overload != OverloadBlock && c.Overload != OverloadShed {
		return fmt.Errorf("engine: unknown overload policy %d", c.Overload)
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 1 {
		return fmt.Errorf("engine: shards must be >= 1, got %d", c.Shards)
	}
	if c.FlowCacheFlows < 0 {
		return fmt.Errorf("engine: flow cache flows must be >= 0, got %d", c.FlowCacheFlows)
	}
	return nil
}

// ErrShed marks a Result dropped by the OverloadShed policy before it
// reached a shard.
var ErrShed = errors.New("engine: packet shed under overload")

// PanicError wraps a classifier panic contained by a shard. The packet
// that triggered it gets a Result with Err set to a *PanicError; every
// other packet is unaffected.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the shard's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: classifier panicked: %v", e.Value)
}

// Result is one classified packet: its arrival sequence number, the header,
// and the matched rule (−1 for none). Err is non-nil when the packet was
// not classified: *PanicError for a contained classifier panic, ErrShed
// for an overload drop, or the context error for a packet overtaken by
// cancellation; Match is −1 in all error cases.
type Result struct {
	Seq    uint64
	Header rules.Header
	Match  int
	Err    error
}

// Stats reports one Run.
type Stats struct {
	// Packets successfully classified and emitted (Err == nil).
	Packets int
	// Shed packets tail-dropped by the overload policy.
	Shed int
	// Panics is the number of classifier panics contained by the shards.
	Panics int
	// Canceled packets: those cut off by context cancellation — either
	// never dispatched or overtaken in the ring.
	Canceled int
	// EmitPanics counts emit callback panics that were contained (at most
	// one: emit is not called again after it panics).
	EmitPanics int
	// MaxReorder is the largest number of packets the sequencer still held
	// back, waiting for an earlier sequence number, after the drain that
	// follows a batch's arrival (0 when ordering is off or classification
	// completed in order).
	MaxReorder int
	// Shards is how many flow-affinity shards served the run.
	Shards int
	// ShardBusy is each shard's cumulative classification busy time. On a
	// host with fewer cores than shards, packets/max(ShardBusy) is the
	// critical-path throughput the shard layout would sustain with one core
	// per shard — the projection internal/experiments reports alongside
	// measured wall-clock numbers.
	ShardBusy []time.Duration
}

// Run classifies every header, invoking emit exactly once per packet from
// a single goroutine. With PreserveOrder, emit sees results strictly in
// arrival order; otherwise in completion order. Run blocks until all
// packets are emitted.
func Run(cl Classifier, cfg Config, headers []rules.Header, emit func(Result)) (Stats, error) {
	return RunContext(context.Background(), cl, cfg, headers, emit)
}

// RunContext is Run with a deadline/cancellation context. When ctx is
// canceled mid-run, in-flight packets drain with Err set to the context
// error, undispatched packets are counted in Stats.Canceled without being
// emitted, and RunContext returns ctx's error. Regardless of how the run
// ends, no goroutine outlives the call.
//
// Failure containment: a classifier panic yields a Result with a
// *PanicError for that packet only. If emit itself panics, the engine
// stops calling it, drains the shards so nothing leaks, and reports the
// panic in the returned error.
func RunContext(ctx context.Context, cl Classifier, cfg Config, headers []rules.Header, emit func(Result)) (Stats, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Stats{}, err
	}
	shards, err := makeShards(cl, nil, &cfg)
	if err != nil {
		return Stats{}, err
	}
	// The slice is served through the streaming core a batch-sized view at
	// a time: no copy on the way in, and cancellation polled once per view.
	off := 0
	st, pulled, emitErr := runShards(ctx, &cfg, shards, nil, func() ([]rules.Header, []uint32, bool) {
		view := headers[off:min(off+cfg.BatchSize, len(headers))]
		off += len(view)
		return view, nil, off < len(headers)
	}, emit, nil)
	// The contiguous tail the dispatcher never pulled is canceled without
	// being emitted; everything it did pull went through the sequencer.
	tail := len(headers) - pulled
	st.Canceled += tail
	cfg.Metrics.recordUndispatched(uint64(tail))
	return st, runErr(ctx, &st, emitErr, len(headers))
}
