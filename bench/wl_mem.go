package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/flowcache"
	"repro/internal/linear"
	"repro/internal/rmi"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

// The fixed run shape of every engine-served workload.
func engineConfig() engine.Config {
	return engine.Config{Shards: 2, BatchSize: batchSize, PreserveOrder: true}
}

const (
	batchSize      = 64
	cacheFlows     = 4096
	aclSampleSize  = 4096
	unchecked      = int32(-1 << 31) // a packet the oracle did not compute
	ledgerReps     = 5
	classifySpan   = "classify_batch"
	engineRunSpan  = "engine.run"
	cacheBatchSpan = "flowcache.classify_batch"
)

type batchClassifier interface {
	Classify(h rules.Header) int
	ClassifyBatch(hs []rules.Header, out []int)
}

// spanClassifier is the wrapper a traced run hands to engine,
// flowcache.New and iofront.Serve in place of the classifier: it brackets
// every classify call with a span and counts calls and packets.
type spanClassifier struct {
	inner  batchClassifier
	rec    *recorder
	name   string
	parent atomic.Uint64 // the span the next calls are children of
	calls  atomic.Int64
	pkts   atomic.Int64
}

func (s *spanClassifier) Classify(h rules.Header) int {
	t0 := s.rec.now()
	m := s.inner.Classify(h)
	s.rec.leaf(s.parent.Load(), s.name, t0, s.rec.now())
	s.calls.Add(1)
	s.pkts.Add(1)
	return m
}

func (s *spanClassifier) ClassifyBatch(hs []rules.Header, out []int) {
	t0 := s.rec.now()
	s.inner.ClassifyBatch(hs, out)
	s.rec.leaf(s.parent.Load(), s.name, t0, s.rec.now())
	s.calls.Add(1)
	s.pkts.Add(int64(len(hs)))
}

// constClassifier answers rule 0 for everything: what is left when it
// serves is everything but classification.
type constClassifier struct{}

func (constClassifier) Classify(rules.Header) int { return 0 }
func (constClassifier) ClassifyBatch(hs []rules.Header, out []int) {
	for i := range hs {
		out[i] = 0
	}
}

// engineRun cycles one trace through engine.RunContext for a warm-up and
// a timed window, checking every verdict as it is emitted.
type engineRun struct {
	algo string // names the classify spans: "<algo>.classify_batch"
	cl   batchClassifier
	cfg  engine.Config
	hs   []rules.Header
	want []int32 // expected verdict per packet; nil when the rule set changes under the run
}

func (r *engineRun) run(o runOpts) (outcome, error) {
	var cl engine.Classifier = r.cl
	var wrap *spanClassifier
	if o.rec != nil {
		wrap = &spanClassifier{inner: r.cl, rec: o.rec, name: r.algo + "." + classifySpan}
		cl = wrap
	}
	sl := newMeter(o)
	var emitted, bad int64
	emit := func(res engine.Result) {
		emitted++
		if res.Err != nil {
			bad++
		} else if r.want != nil {
			if w := r.want[res.Seq]; w != unchecked && w != int32(res.Match) {
				bad++
			}
		}
		if emitted&255 == 0 {
			sl.tick(emitted - bad)
		}
	}

	var out outcome
	var batchNs, warmNs []float64 // per pass: what a shard spent on one batch
	var busy []time.Duration
	var windowPkts, maxReorder int64
	var ms runtime.MemStats
	var mallocs uint64
	for pass := 0; !sl.done(); pass++ {
		inWindow := sl.warmed()
		if inWindow && mallocs == 0 {
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs
		}
		var id uint64
		var t0 int64
		if wrap != nil {
			id, t0 = o.rec.newID(), o.rec.now()
			wrap.parent.Store(id)
		}
		start := time.Now()
		st, err := engine.RunContext(context.Background(), cl, r.cfg, r.hs, emit)
		d := time.Since(start)
		if wrap != nil {
			o.rec.add(id, 0, engineRunSpan, t0, t0+int64(d))
		}
		sl.tick(emitted - bad)
		out.attempted += int64(len(r.hs))
		if got := st.Packets + st.Shed + st.Canceled + st.Panics; got != len(r.hs) {
			return out, fmt.Errorf("engine accounting: %d classified + %d shed + %d canceled + %d panicked != %d offered",
				st.Packets, st.Shed, st.Canceled, st.Panics, len(r.hs))
		}
		if err != nil && st.Packets == len(r.hs) {
			return out, err // not a per-packet failure: those are counted by emit
		}
		var spent time.Duration
		for _, b := range st.ShardBusy {
			spent += b
		}
		perBatch := float64(spent) * batchSize / float64(len(r.hs))
		if !inWindow {
			warmNs = append(warmNs, perBatch)
			continue
		}
		batchNs = append(batchNs, perBatch)
		windowPkts += int64(len(r.hs))
		maxReorder = max(maxReorder, int64(st.MaxReorder))
		if busy == nil {
			busy = make([]time.Duration, len(st.ShardBusy))
		}
		for i, b := range st.ShardBusy {
			busy[i] += b
		}
	}
	runtime.ReadMemStats(&ms)
	out.failed = bad + (out.attempted - emitted)
	out.rate = sl.rates()
	if len(batchNs) == 0 {
		batchNs = warmNs // a window shorter than one pass: better a warm-up sample than none
	}
	// There is no request to time in memory, so latency here is what the
	// engine itself reports a packet waits for once dispatched: the time a
	// shard is busy with one batch (flow cache included), a sample per pass.
	// Unlike mpps it leaves out dispatch, queues, reorder and emit.
	out.lat = summarize(batchNs, o.tailPct)

	out.layer = map[string]float64{"engine.max_reorder": float64(maxReorder)}
	if windowPkts > 0 {
		var busiest, sum time.Duration
		for _, b := range busy {
			busiest = max(busiest, b)
			sum += b
		}
		out.layer["engine.shard_busy_ns_per_pkt"] = float64(busiest) / float64(windowPkts)
		if sum > 0 {
			out.layer["engine.shard_imbalance"] = float64(busiest) * float64(len(busy)) / float64(sum)
		}
		out.layer["engine.allocs_per_pkt"] = float64(ms.Mallocs-mallocs) / float64(windowPkts)
	}
	if wrap != nil && r.cfg.FlowCacheFlows > 0 && emitted > 0 {
		// With the engine's cache on, the wrapped classifier sees only misses.
		out.layer["flowcache.hit_rate"] = 1 - float64(wrap.pkts.Load())/float64(emitted)
	}
	return out, nil
}

// engineSelfFrac is the share of the engine.run spans that no classify
// span covers: dispatch, queues, reorder, emit — and the flow cache when
// it is on, since the engine owns it.
func engineSelfFrac(spans []span) float64 {
	lt := selfTimes(spans)[engineRunSpan]
	if lt.total == 0 {
		return 0
	}
	return float64(lt.self) / float64(lt.total)
}

// timeIt runs f once to warm up and reps times for the record, brackets
// each repetition with a span, and returns the median nanoseconds per unit.
func (lc *ledgerCtx) timeIt(name string, reps, units int, f func()) float64 {
	f()
	per := make([]float64, reps)
	for i := range per {
		t0 := lc.opts.rec.now()
		start := time.Now()
		f()
		d := time.Since(start)
		lc.opts.rec.leaf(0, name, t0, t0+int64(d))
		per[i] = float64(d) / float64(units)
	}
	return median(per)
}

// inBatches feeds hs to f in engine-sized batches.
func inBatches(hs []rules.Header, out []int, f func(hs []rules.Header, out []int)) {
	for i := 0; i < len(hs); i += batchSize {
		j := min(i+batchSize, len(hs))
		f(hs[i:j], out[i:j])
	}
}

// oracle fills want[i] with linear search's verdict for hs[i], for the
// indices in sample (all of hs when sample is nil), on every core.
func oracle(rs *rules.RuleSet, hs []rules.Header, sample []int) []int32 {
	lin := linear.New(rs)
	want := make([]int32, len(hs))
	if sample != nil {
		for i := range want {
			want[i] = unchecked
		}
		for _, i := range sample {
			want[i] = int32(lin.Classify(hs[i]))
		}
		return want
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := len(hs)*w/workers, len(hs)*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, hi-lo)
			lin.ClassifyBatch(hs[lo:hi], out)
			for i, m := range out {
				want[lo+i] = int32(m)
			}
		}()
	}
	wg.Wait()
	return want
}

// cr04Tree is the set-up every CR04 expcuts workload shares: the preset,
// the tree, 2^18 distinct flows.
type cr04Tree struct {
	rs     *rules.RuleSet
	tree   *expcuts.Tree
	flows  []rules.Header
	buildS float64
}

func setupCR04(p presets, seed int64) (*cr04Tree, error) {
	rs, err := rulegen.Standard(p.cr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tree, err := expcuts.New(rs, expcuts.DefaultConfig())
	if err != nil {
		return nil, err
	}
	c := &cr04Tree{rs: rs, tree: tree, buildS: time.Since(start).Seconds()}
	if c.flows, err = genFlows(rs, p.flows, seed); err != nil {
		return nil, err
	}
	return c, nil
}

// memEnv is an in-memory workload: a classifier served by engine.RunContext.
type memEnv struct {
	base   *cr04Tree // nil on mem_acl100k
	rs     *rules.RuleSet
	index  *rmi.Index // mem_acl100k only
	buildS float64
	serve  engineRun
	order  []uint32 // mem_zipf_cache: the flow each packet belongs to
	sample []int    // mem_acl100k: the packets the oracle checks
	mem    int
}

func (e *memEnv) memBytes() int { return e.mem }

func (e *memEnv) run(o runOpts) (outcome, error) {
	out, err := e.serve.run(o)
	out.notes = append(out.notes, fmt.Sprintf("rtt is Stats.ShardBusy per %d-packet batch, one sample per RunContext pass over %d packets", batchSize, len(e.serve.hs)))
	return out, err
}

func (e *memEnv) prepare() error {
	if e.order == nil {
		e.serve.want = oracle(e.rs, e.serve.hs, e.sample)
		return nil
	}
	perFlow := oracle(e.rs, e.base.flows, nil)
	e.serve.want = make([]int32, len(e.order))
	for i, f := range e.order {
		e.serve.want[i] = perFlow[f]
	}
	return nil
}

func setupMemUniform(p presets, seed int64) (env, error) {
	c, err := setupCR04(p, seed)
	if err != nil {
		return nil, err
	}
	return &memEnv{base: c, rs: c.rs, mem: c.tree.MemoryBytes(),
		serve: engineRun{algo: "expcuts", cl: c.tree, cfg: engineConfig(), hs: c.flows}}, nil
}

func setupMemZipf(p presets, seed int64) (env, error) {
	c, err := setupCR04(p, seed)
	if err != nil {
		return nil, err
	}
	order := genZipf(len(c.flows), len(c.flows), seed)
	hs := make([]rules.Header, len(order))
	for i, f := range order {
		hs[i] = c.flows[f]
	}
	cfg := engineConfig()
	cfg.FlowCacheFlows = cacheFlows
	return &memEnv{base: c, rs: c.rs, mem: c.tree.MemoryBytes(), order: order,
		serve: engineRun{algo: "expcuts", cl: c.tree, cfg: cfg, hs: hs}}, nil
}

func setupMemACL(p presets, seed int64) (env, error) {
	preset, ok := rulegen.Large(p.acl)
	if !ok {
		return nil, fmt.Errorf("rulegen has no preset %s", p.acl)
	}
	rs, err := rulegen.Generate(preset)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	index, err := rmi.New(rs, rmi.Config{})
	if err != nil {
		return nil, err
	}
	buildS := time.Since(start).Seconds()
	hs, err := genFlows(rs, p.flows, seed)
	if err != nil {
		return nil, err
	}
	return &memEnv{rs: rs, index: index, buildS: buildS, mem: index.MemoryBytes(),
		sample: genSample(len(hs), aclSampleSize, seed),
		serve:  engineRun{algo: "rmi", cl: index, cfg: engineConfig(), hs: hs}}, nil
}

func (e *memEnv) ledger(lc *ledgerCtx) error {
	lc.m["engine.self_frac"] = engineSelfFrac(lc.spans)
	switch {
	case e.index != nil:
		e.ledgerRMI(lc)
	case e.order != nil:
		return e.ledgerFlowCache(lc)
	default:
		if err := e.ledgerEngine(lc); err != nil {
			return err
		}
		e.ledgerExpCuts(lc)
	}
	return nil
}

// ledgerEngine times the four serve loops on the workload's trace with
// the constant classifier, so the rows differ only in the loop.
func (e *memEnv) ledgerEngine(lc *ledgerCtx) error {
	hs := e.serve.hs
	ctx := context.Background()
	discard := func(engine.Result) {}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	loop := func(name string, cfg engine.Config, hs []rules.Header) {
		lc.m[name] = lc.timeIt("ledger."+name, ledgerReps, len(hs), func() {
			_, err := engine.RunContext(ctx, constClassifier{}, cfg, hs, discard)
			keep(err)
		})
	}
	loop("engine.overhead_ns_per_pkt", engineConfig(), hs)
	one := engineConfig()
	one.BatchSize = 1
	loop("engine.batch1_ns_per_pkt", one, hs[:len(hs)/8]) // per-packet dispatch is an order slower
	pool := engineConfig()
	pool.Shards = 1
	loop("engine.pool_ns_per_pkt", pool, hs)

	lc.m["engine.stream_ns_per_pkt"] = lc.timeIt("ledger.engine.stream_ns_per_pkt", ledgerReps, len(hs), func() {
		_, err := engine.RunStream(ctx, constClassifier{}, engineConfig(), &engine.SliceSource{Headers: hs}, discard)
		keep(err)
	})
	const tenants = 4
	pkts := make([]engine.TenantPacket, len(hs))
	for i, h := range hs {
		pkts[i] = engine.TenantPacket{Tenant: uint32(i % tenants), Header: h}
	}
	lc.m["engine.tenants_ns_per_pkt"] = lc.timeIt("ledger.engine.tenants_ns_per_pkt", ledgerReps, len(hs), func() {
		_, err := engine.RunTenants(ctx, constResolver{}, engineConfig(), pkts, func(engine.TenantResult) {})
		keep(err)
	})

	// Metrics attached or not, interleaved so both see the same host.
	on := engineConfig()
	on.Metrics = engine.NewMetrics(on.Shards)
	var withNs, withoutNs []float64
	for i := 0; i < ledgerReps; i++ {
		for _, cfg := range []engine.Config{engineConfig(), on} {
			start := time.Now()
			_, err := engine.RunContext(ctx, e.serve.cl, cfg, hs, discard)
			keep(err)
			if cfg.Metrics == nil {
				withoutNs = append(withoutNs, float64(time.Since(start)))
			} else {
				withNs = append(withNs, float64(time.Since(start)))
			}
		}
	}
	lc.m["obs.metrics_on_overhead_frac"] = median(withNs)/median(withoutNs) - 1
	return firstErr
}

type constResolver struct{}
type constLane struct{ constClassifier }

func (constLane) ShedOnOverload() bool              { return false }
func (constResolver) Lane(uint32) engine.TenantLane { return constLane{} }

func (e *memEnv) ledgerExpCuts(lc *ledgerCtx) {
	tree, hs := e.base.tree, e.serve.hs
	out := make([]int, len(hs))
	lc.m["expcuts.classify_ns_per_pkt"] = lc.timeIt("ledger.expcuts.classify_batch", ledgerReps, len(hs), func() {
		inBatches(hs, out, tree.ClassifyBatch)
	})
	group := engine.AutoPipelineGroup()
	before := tree.StageFill()
	lc.m["expcuts.pipelined_ns_per_pkt"] = lc.timeIt("ledger.expcuts.classify_batch_pipelined", ledgerReps, len(hs), func() {
		inBatches(hs, out, func(hs []rules.Header, out []int) { tree.ClassifyBatchPipelined(hs, out, group, false) })
	})
	if after := tree.StageFill(); len(after) > 0 && after[0] > before[0] {
		var levels uint64
		for l := range after {
			levels += after[l] - before[l]
		}
		lc.m["expcuts.levels_mean"] = float64(levels) / float64(after[0]-before[0])
	}
	lc.m["expcuts.single_ns_per_pkt"] = lc.timeIt("ledger.expcuts.classify", ledgerReps, len(hs), func() {
		for i, h := range hs {
			out[i] = tree.Classify(h)
		}
	})
	lc.m["expcuts.build_s"] = e.base.buildS
	lc.m["expcuts.mem_bytes"] = float64(tree.MemoryBytes())
	lc.m["expcuts.nodes"] = float64(tree.Stats().Nodes)
}

// ledgerFlowCache replays an all-hit and an all-distinct trace through a
// cache of the workload's size. The slow path is the wrapped tree, so the
// cache's own cost is the self time of its spans.
func (e *memEnv) ledgerFlowCache(lc *ledgerCtx) error {
	rec := lc.opts.rec
	slow := &spanClassifier{inner: e.base.tree, rec: rec, name: "expcuts." + classifySpan}
	cache, err := flowcache.New(slow, cacheFlows)
	if err != nil {
		return err
	}
	replay := func(hs []rules.Header) float64 {
		out := make([]int, len(hs))
		first := int(rec.n.Load())
		inBatches(hs, out, func(hs []rules.Header, out []int) {
			id, t0 := rec.newID(), rec.now()
			slow.parent.Store(id)
			cache.ClassifyBatch(hs, out)
			rec.add(id, 0, cacheBatchSpan, t0, rec.now())
		})
		lt := selfTimes(rec.recorded()[first:])[cacheBatchSpan]
		return float64(lt.self) / float64(len(hs))
	}
	flows := e.base.flows
	resident := flows[:cacheFlows/2]
	replay(resident) // fill
	var hits []float64
	for i := 0; i < ledgerReps; i++ {
		hits = append(hits, replay(resident))
	}
	lc.m["flowcache.hit_ns_per_pkt"] = median(hits)
	replay(flows[:cacheFlows]) // push the resident flows out
	lc.m["flowcache.miss_ns_per_pkt"] = replay(flows[cacheFlows : cacheFlows+1<<15])

	const advances = 1000
	start := time.Now()
	for i := 0; i < advances; i++ {
		cache.AdvanceEpoch()
	}
	lc.m["flowcache.epoch_advance_ns"] = float64(time.Since(start)) / advances
	return nil
}

func (e *memEnv) ledgerRMI(lc *ledgerCtx) {
	hs := e.serve.hs
	out := make([]int, len(hs))
	lc.m["rmi.classify_ns_per_pkt"] = lc.timeIt("ledger.rmi.classify_batch", ledgerReps, len(hs), func() {
		inBatches(hs, out, e.index.ClassifyBatch)
	})
	st := e.index.Stats()
	lc.m["rmi.build_s"] = e.buildS
	lc.m["rmi.mem_bytes"] = float64(e.index.MemoryBytes())
	lc.m["rmi.max_err"] = float64(st.MaxErr)
	lc.m["rmi.remainder_rules"] = float64(st.RemainderRules)
}
