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

// Classifier is the lookup the engine parallelizes.
type Classifier interface {
	Classify(h rules.Header) int
}

// BatchClassifier is optionally implemented by classifiers with a batched
// fast path: ClassifyBatch classifies hs[i] into out[i] for every i, with
// exactly the same answers Classify would give. out must be at least as
// long as hs; implementations must not retain either slice. The engine
// dispatches whole batches to it, which amortizes per-packet dispatch cost
// and lets tree classifiers walk level-synchronously (every packet's
// pointer chase at one level before any packet advances to the next — the
// software analogue of the paper's explicit-depth guarantee). Classifiers
// without it are served by a per-packet loop fallback.
type BatchClassifier interface {
	Classifier
	ClassifyBatch(hs []rules.Header, out []int)
}

// PipelinedClassifier is optionally implemented by classifiers whose
// batched walk can run software-pipelined level stages (expcuts.Tree,
// and update.Manager when its live generation does): packets advance in
// interleaved groups so one group's lookups overlap the next group's
// next-level line fills. ClassifyBatchPipelined must give exactly the
// answers ClassifyBatch would; group and affine follow the semantics of
// Config.PipelineGroup and Config.PipelineAffine.
type PipelinedClassifier interface {
	BatchClassifier
	ClassifyBatchPipelined(hs []rules.Header, out []int, group int, affine bool)
}

// pipelined adapts a PipelinedClassifier to the BatchClassifier shape the
// serve loops consume, pinning the run's stage group size and affinity so
// every batch — including flow-cache miss sub-batches — takes the staged
// walk.
type pipelined struct {
	pc     PipelinedClassifier
	group  int
	affine bool
}

func (p pipelined) Classify(h rules.Header) int { return p.pc.Classify(h) }

func (p pipelined) ClassifyBatch(hs []rules.Header, out []int) {
	p.pc.ClassifyBatchPipelined(hs, out, p.group, p.affine)
}

// batcher resolves the effective batched path for a run: the pipelined
// stage walk when the config asks for it and the classifier supports it,
// otherwise the classifier's own ClassifyBatch (nil when it has none).
func (c *Config) batcher(cl Classifier) BatchClassifier {
	if c.PipelineGroup > 0 {
		if pc, ok := cl.(PipelinedClassifier); ok {
			return pipelined{pc: pc, group: c.PipelineGroup, affine: c.PipelineAffine}
		}
	}
	bc, _ := cl.(BatchClassifier)
	return bc
}

// PipelineAuto, as Config.PipelineGroup, selects a GOMAXPROCS-derived
// stage group size at run start (see AutoPipelineGroup).
const PipelineAuto = -1

// AutoPipelineGroup is the stage group size PipelineAuto resolves to: a
// full default batch per group on a single core (one wave of independent
// arena loads per level), shrinking as cores multiply — more concurrent
// shard walks already share the cache hierarchy, so each walk keeps its
// in-flight state smaller.
func AutoPipelineGroup() int {
	g := DefaultBatchSize / runtime.GOMAXPROCS(0)
	if g < 8 {
		g = 8
	}
	return g
}

// Describer is optionally implemented by classifiers that know which
// algorithm is live and how degraded it is (0 = best rung of a
// degradation ladder; higher = further down). update.Manager implements
// it; when the classifier handed to Run does, Stats carries the answer so
// callers can tell which rung actually served the run.
type Describer interface {
	DescribeAlgorithm() (algorithm string, degradationLevel int)
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
	// the pre-batching engine (the baseline BenchmarkServe compares
	// against). Shedding and cancellation-overtake happen at batch
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
	// front of the classifier. Per-shard privacy means no cache
	// synchronization and no cross-core cache-line bouncing; flow-hash
	// dispatch guarantees all packets of a flow see the same shard's
	// cache. When the classifier exposes rule-set generations
	// (update.Manager), each shard invalidates its cache on generation
	// change and guarantees no batch mixes results from two generations.
	// 0 disables caching.
	FlowCacheFlows int
	// Metrics, when non-nil, attaches the engine's observability block
	// (see NewMetrics): serving loops record per-shard counters and
	// histograms at batch granularity — never per packet, never with a
	// lock, never allocating. One Metrics may be shared across sequential
	// and concurrent runs; counters accumulate, which is what a scrape
	// endpoint wants. Nil disables instrumentation entirely at the cost
	// of one pointer test per batch.
	Metrics *Metrics
	// PipelineGroup enables software-pipelined level-stage classification
	// when the classifier implements PipelinedClassifier: every batch is
	// walked in interleaved groups of this many packets (see
	// expcuts.ClassifyBatchPipelined). 0 (the zero value) keeps the plain
	// level-synchronous ClassifyBatch; PipelineAuto (-1) derives the group
	// size from GOMAXPROCS at run start (AutoPipelineGroup); any other
	// negative value is rejected. Classifiers without a pipelined walk
	// serve exactly as before — the knob is a no-op for them.
	PipelineGroup int
	// PipelineAffine biases each pipelined group to one tree slice by
	// sorting the batch's walk order by root key chunk before the staged
	// walk (the multi-core analogue of per-microengine SRAM banking: a
	// shard's working set concentrates on one contiguous region of every
	// tree level). Requires PipelineGroup to be enabled.
	PipelineAffine bool
	// TenantPartitions bounds how many tenants may hold a resident flow
	// cache partition per shard on the multi-tenant path (RunTenants):
	// each resident tenant gets its own FlowCacheFlows-flow cache, and at
	// the bound the least recently served tenant's partition is reclaimed
	// (a tenant-evicted event, cold misses for the victim, never a
	// correctness change). 0 means DefaultTenantPartitions. Ignored by
	// RunContext and RunStream.
	TenantPartitions int
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
	if c.PipelineGroup == PipelineAuto {
		c.PipelineGroup = AutoPipelineGroup()
	}
	if c.PipelineGroup < 0 {
		return fmt.Errorf("engine: pipeline group %d must be >= 0 (or PipelineAuto)", c.PipelineGroup)
	}
	if c.PipelineAffine && c.PipelineGroup == 0 {
		return fmt.Errorf("engine: PipelineAffine requires PipelineGroup to be enabled")
	}
	if c.TenantPartitions == 0 {
		c.TenantPartitions = DefaultTenantPartitions
	}
	if c.TenantPartitions < 1 {
		return fmt.Errorf("engine: tenant partitions must be >= 1, got %d", c.TenantPartitions)
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
	// Algorithm and DegradationLevel are filled when the classifier
	// implements Describer: the algorithm that served this run and its
	// rung on the degradation ladder (0 = best). Algorithm is empty for
	// classifiers that don't describe themselves. This pair is sampled as
	// serving starts.
	Algorithm        string
	DegradationLevel int
	// FinalAlgorithm and FinalDegradationLevel re-sample the Describer
	// after the last result is emitted. They differ from Algorithm /
	// DegradationLevel exactly when a hot-swap or rung change landed
	// while the run was serving; callers that need one label for the run
	// should treat a first/final mismatch as "mixed".
	FinalAlgorithm        string
	FinalDegradationLevel int
	// Shards is how many flow-affinity shards served the run.
	Shards int
	// ShardBusy is each shard's cumulative classification busy time. On a
	// host with fewer cores than shards, packets/max(ShardBusy) is the
	// critical-path throughput the shard layout would sustain with one core
	// per shard — the projection internal/experiments reports alongside
	// measured wall-clock numbers.
	ShardBusy []time.Duration
}

// Errors is the total number of error results (shed + panicked + canceled).
func (s Stats) Errors() int { return s.Shed + s.Panics + s.Canceled }

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
	st, pulled, emitErr := runShards(ctx, cl, &cfg, shards, nil, func() ([]rules.Header, []uint32, bool) {
		view := headers[off:min(off+cfg.BatchSize, len(headers))]
		off += len(view)
		return view, nil, off < len(headers)
	}, emit)
	// The contiguous tail the dispatcher never pulled is canceled without
	// being emitted; everything it did pull went through the sequencer.
	tail := len(headers) - pulled
	st.Canceled += tail
	cfg.Metrics.recordUndispatched(uint64(tail))
	return st, runErr(ctx, &st, emitErr, len(headers))
}
