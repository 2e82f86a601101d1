// Package engine is a native Go classification runtime that mirrors the
// programming challenges of §3.2 of the paper with real goroutines instead
// of microengine threads: a dispatcher feeds packets to a pool of worker
// goroutines ("threads") through a bounded ring, workers classify
// concurrently, and a reorder stage restores arrival order using sequence
// numbers — the paper's third challenge, "maintaining packet ordering in
// spite of parallel processing ... using sequence numbers and/or strict
// thread ordering".
//
// Beyond the happy path, the engine is a hardened serving layer: a
// classifier panic is contained to the packet that triggered it and
// surfaced as a Result error instead of a crashed worker, a per-run
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
	"runtime/debug"
	"sync"
	"sync/atomic"
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
	// Workers is the number of classification goroutines.
	Workers int
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
	// runtime.GOMAXPROCS(0). With more than one shard (or with a flow
	// cache) the engine serves through its sharded path: packets are
	// dispatched by a 5-tuple flow hash so every flow lands on one shard,
	// each shard runs a private serving loop with private batch/result
	// pools (no cross-core mutable sharing on the hot path), and a single
	// cross-shard sequencer restores arrival order. Semantics — ordered
	// emission, shed/cancel accounting, per-packet panic attribution —
	// are identical to the unsharded path at any shard count; see
	// shard.go. Workers is ignored in sharded mode (each shard is one
	// serving loop, the way each microengine runs its own thread group).
	Shards int
	// FlowCacheFlows, when > 0, gives each shard a private exact-match
	// flow cache (8-way sets, internal/flowcache) of this many flows in
	// front of the classifier. Per-shard privacy means no cache
	// synchronization and no cross-core cache-line bouncing; flow-hash
	// dispatch guarantees all packets of a flow see the same shard's
	// cache. When the classifier exposes rule-set generations
	// (update.Manager), each shard invalidates its cache on generation
	// change and guarantees no batch mixes results from two generations.
	// 0 disables caching. Setting FlowCacheFlows forces the sharded path
	// even at Shards == 1.
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
	// RunContext.
	TenantPartitions int
}

// DefaultBatchSize is the packets-per-dispatch default. 64 packets is
// large enough to make channel operations disappear from profiles and
// small enough that per-worker batch buffers stay inside the L1 cache.
const DefaultBatchSize = 64

// MaxBatchSize bounds BatchSize; beyond this the batch buffers stop
// fitting caches and shed/cancel granularity gets needlessly coarse.
const MaxBatchSize = 1 << 16

// DefaultConfig runs 8 workers — one per hardware thread of a single
// microengine — with ordering on, blocking back-pressure, and 64-packet
// batches.
func DefaultConfig() Config {
	return Config{Workers: 8, QueueDepth: 256, PreserveOrder: true, BatchSize: DefaultBatchSize}
}

func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.BatchSize == 0 {
		c.BatchSize = d.BatchSize
	}
	if c.Workers < 1 {
		return fmt.Errorf("engine: workers must be >= 1, got %d", c.Workers)
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
// reached a worker.
var ErrShed = errors.New("engine: packet shed under overload")

// PanicError wraps a classifier panic contained by a worker. The packet
// that triggered it gets a Result with Err set to a *PanicError; every
// other packet is unaffected.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker stack at recovery time.
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
	// Panics is the number of classifier panics contained by workers.
	Panics int
	// Canceled packets: those cut off by context cancellation — either
	// never dispatched or overtaken in the ring.
	Canceled int
	// EmitPanics counts emit callback panics that were contained (at most
	// one: emit is not called again after it panics).
	EmitPanics int
	// MaxReorder is the largest number of results the reorder stage held
	// back waiting for an earlier sequence number (0 when ordering is
	// off or classification completed in order).
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
	// Shards is how many flow-affinity shards served the run (1 when the
	// legacy worker-pool path served it).
	Shards int
	// ShardBusy is each shard's cumulative classification busy time
	// (sharded path only; nil otherwise). On a host with fewer cores than
	// shards, packets/max(ShardBusy) is the critical-path throughput the
	// shard layout would sustain with one core per shard — the projection
	// internal/experiments reports alongside measured wall-clock numbers.
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
// stops calling it, drains the workers so nothing leaks, and reports the
// panic in the returned error.
func RunContext(ctx context.Context, cl Classifier, cfg Config, headers []rules.Header, emit func(Result)) (Stats, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Stats{}, err
	}
	if cfg.Shards > 1 || cfg.FlowCacheFlows > 0 {
		return runSharded(ctx, cl, cfg, headers, emit)
	}
	// A job is one dispatched batch: the arrival sequence number of its
	// first packet and a sub-slice of headers (no copy). One channel
	// operation moves BatchSize packets.
	type job struct {
		seq uint64
		hs  []rules.Header
	}
	jobs := make(chan job, cfg.QueueDepth)
	// results carries one batch per dispatched-or-shed job. The main loop
	// below drains it unconditionally until close, which is what
	// guarantees workers can always deliver and never leak. Batch result
	// buffers are recycled through pool: the steady state allocates
	// nothing per batch.
	results := make(chan *resultBatch, cfg.QueueDepth)
	pool := sync.Pool{New: func() any {
		return &resultBatch{rs: make([]Result, 0, cfg.BatchSize)}
	}}
	bc := cfg.batcher(cl)

	var wg sync.WaitGroup
	var panics, busyNanos atomic.Int64
	// The unsharded pipeline is one logical shard: all workers record
	// into metrics slot 0 (per-batch atomic adds, contention-tolerant).
	sm := cfg.Metrics.shard(0)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker match buffer for the BatchClassifier fast path;
			// allocated once per worker, not per batch.
			var matches []int
			if bc != nil {
				matches = make([]int, cfg.BatchSize)
			}
			var busy time.Duration
			for j := range jobs {
				queued := len(jobs)
				out := pool.Get().(*resultBatch)
				out.rs = out.rs[:len(j.hs)]
				if err := ctx.Err(); err != nil {
					// Cancellation overtook this batch in the ring:
					// fail it fast instead of classifying.
					for i, h := range j.hs {
						out.rs[i] = Result{Seq: j.seq + uint64(i), Header: h, Match: -1, Err: err}
					}
					sm.addCanceled(uint64(len(j.hs)))
				} else {
					start := time.Now()
					p := classifyBatch(cl, bc, j.seq, j.hs, out.rs, matches)
					d := time.Since(start)
					panics.Add(p)
					busy += d
					sm.recordBatch(len(j.hs), d, queued)
					sm.addPanics(uint64(p))
				}
				results <- out
			}
			busyNanos.Add(int64(busy))
		}()
	}

	var undispatched atomic.Int64
	go func() {
		defer close(jobs)
		n := len(headers)
		for i := 0; i < n; i += cfg.BatchSize {
			if ctx.Err() != nil {
				undispatched.Store(int64(n - i))
				cfg.Metrics.recordUndispatched(uint64(n - i))
				return
			}
			end := i + cfg.BatchSize
			if end > n {
				end = n
			}
			j := job{seq: uint64(i), hs: headers[i:end]}
			if cfg.Overload == OverloadShed {
				select {
				case jobs <- j:
				default:
					// Ring full: tail-drop the whole batch. Delivering
					// the shed markers through results keeps the
					// sequence space gap-free for the reorder stage.
					out := pool.Get().(*resultBatch)
					out.rs = out.rs[:len(j.hs)]
					for k, h := range j.hs {
						out.rs[k] = Result{Seq: j.seq + uint64(k), Header: h, Match: -1, Err: ErrShed}
					}
					sm.addShed(uint64(len(j.hs)))
					results <- out
				}
				continue
			}
			jobs <- j
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	st := Stats{Shards: 1}
	d, describes := cl.(Describer)
	if describes {
		st.Algorithm, st.DegradationLevel = d.DescribeAlgorithm()
	}
	em := &emitter{st: &st, emit: emit}
	emitOne := em.one
	reorderHeld := cfg.Metrics.reorderHeldHist()

	if cfg.PreserveOrder {
		// Reorder stage: hold completed results until their predecessors
		// arrive, exactly like a sequence-numbered transmit stage on the
		// NP. The buffer is a sliding ring indexed by sequence number —
		// insertion and the in-order drain are array operations with no
		// hashing and no steady-state allocation (the ring grows, rarely,
		// only when shedding under PreserveOrder lets the dispatcher run
		// far ahead of the slowest worker).
		ring := newReorderRing(cfg.BatchSize)
		for out := range results {
			for _, r := range out.rs {
				ring.insert(r)
				if ring.held > st.MaxReorder {
					st.MaxReorder = ring.held
				}
				ring.drain(emitOne)
			}
			reorderHeld.Observe(uint64(ring.held))
			out.rs = out.rs[:0]
			pool.Put(out)
		}
		if ring.held != 0 {
			return st, fmt.Errorf("engine: %d results stranded in the reorder buffer", ring.held)
		}
	} else {
		for out := range results {
			for _, r := range out.rs {
				emitOne(r)
			}
			out.rs = out.rs[:0]
			pool.Put(out)
		}
	}
	if describes {
		// Re-sampled after the last result drained so a mid-run hot-swap
		// or rung change is visible as Algorithm != FinalAlgorithm.
		st.FinalAlgorithm, st.FinalDegradationLevel = d.DescribeAlgorithm()
	}
	st.Panics = int(panics.Load())
	st.Canceled += int(undispatched.Load())
	// The unsharded pipeline is one logical shard: its busy entry is the
	// summed classification time of all its workers, so the scaling
	// experiment can compare busy-time across shard counts uniformly.
	st.ShardBusy = []time.Duration{time.Duration(busyNanos.Load())}

	switch {
	case em.err != nil:
		return st, em.err
	case ctx.Err() != nil:
		return st, fmt.Errorf("engine: run cut short, %d of %d packets canceled: %w",
			st.Canceled, len(headers), ctx.Err())
	case st.Panics > 0:
		return st, fmt.Errorf("engine: %d of %d packets failed with contained classifier panics",
			st.Panics, len(headers))
	}
	return st, nil
}

// emitter serializes result delivery for both serving paths: it tallies
// the per-outcome stats and contains an emit-callback panic (after which
// emit is never called again, but results keep draining so no goroutine
// leaks). It is used from the single emission goroutine only.
type emitter struct {
	st   *Stats
	emit func(Result)
	err  error
}

func (e *emitter) one(r Result) {
	switch {
	case r.Err == nil:
		e.st.Packets++
	case errors.Is(r.Err, ErrShed):
		e.st.Shed++
	case isPanicErr(r.Err):
		// counted via the panics atomic by the serving path
	default:
		e.st.Canceled++
	}
	if e.err != nil {
		return // emit already panicked once; never call it again
	}
	defer func() {
		if p := recover(); p != nil {
			e.st.EmitPanics++
			e.err = fmt.Errorf("engine: emit panicked on packet %d: %v", r.Seq, p)
		}
	}()
	e.emit(r)
}

// resultBatch is one batch of results; instances cycle through a sync.Pool.
// home, set by the sharded path, is the owning shard's pool so the
// emission loop can recycle a batch back to the shard that produced it
// (the unsharded path recycles into its single run-local pool and leaves
// home nil).
type resultBatch struct {
	rs   []Result
	home *sync.Pool
	// tenant and si carry the multi-tenant path's batch attribution (every
	// tenant batch is single-tenant by construction); the single-table
	// paths leave them zero.
	tenant uint32
	si     int
}

// classifyBatch fills rs with the results for one batch, returning how
// many packets failed with contained panics. The BatchClassifier fast
// path classifies the whole batch in one call; if that call panics, the
// batch is re-run packet-by-packet so the panic is attributed to exactly
// the packet(s) that triggered it and every innocent packet still gets
// its answer — panic isolation at batch granularity never costs more
// than the per-packet path would have.
func classifyBatch(cl Classifier, bc BatchClassifier, seq uint64, hs []rules.Header, rs []Result, matches []int) int64 {
	if bc != nil && classifyBatchContained(bc, hs, matches[:len(hs)]) {
		for i, h := range hs {
			rs[i] = Result{Seq: seq + uint64(i), Header: h, Match: matches[i]}
		}
		return 0
	}
	var panicked int64
	for i, h := range hs {
		r := classifyOne(cl, seq+uint64(i), h)
		if r.Err != nil {
			panicked++
		}
		rs[i] = r
	}
	return panicked
}

// classifyBatchContained runs the batched lookup with panic containment,
// reporting whether it completed. A false return means some packet in the
// batch panicked the classifier; the caller falls back to the per-packet
// path for attribution.
func classifyBatchContained(bc BatchClassifier, hs []rules.Header, out []int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	bc.ClassifyBatch(hs, out)
	return true
}

// classifyOne runs one lookup with panic containment: a panicking
// classifier costs its packet, not the worker.
func classifyOne(cl Classifier, seq uint64, h rules.Header) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			r = Result{Seq: seq, Header: h, Match: -1,
				Err: &PanicError{Value: p, Stack: debug.Stack()}}
		}
	}()
	return Result{Seq: seq, Header: h, Match: cl.Classify(h)}
}

func isPanicErr(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}
