// Engine observability: per-shard instrument blocks recorded at batch
// granularity, aggregated only when a registry scrapes. Every instrument
// has one writer during a run: a shard's serve goroutine records its work
// and its served lane's cache delta, and the emit goroutine counts each
// batch's outcomes from the sequencer's tally and observes the reorder
// histogram. A Metrics value outlives individual runs — attach one to every
// Config a process serves with and the counters accumulate across runs,
// which is what a Prometheus endpoint wants (monotonic totals, not
// per-run resets).
package engine

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// shardMetrics is one shard's instrument block. Each instrument has a
// single writer (see above), so every update is an uncontended atomic.
// The trailing pad keeps neighboring shards' blocks off each other's
// cache lines.
type shardMetrics struct {
	// packets and batches count the work the serve loop classified,
	// panicked packets included.
	packets obs.Counter
	batches obs.Counter
	// shed / canceled / panics count per-packet outcomes of the batches
	// bound for this shard, served or not.
	shed     obs.Counter
	canceled obs.Counter
	panics   obs.Counter
	// busyNs accumulates classification time in nanoseconds — the
	// commodity-core stand-in for per-ME utilization.
	busyNs obs.Counter
	// cacheHits / cacheMisses / cacheRefused mirror the shard's flow
	// caches, fed by the served lane's per-batch deltas of its cache's own
	// (unsynchronized) counters so the cache itself stays atomic-free.
	cacheHits    obs.Counter
	cacheMisses  obs.Counter
	cacheRefused obs.Counter
	// batchFill observes packets per dispatched batch.
	batchFill obs.Hist
	// classifyNs observes per-packet classification nanoseconds,
	// attributed as batch-mean × batch-size (per-packet timing would
	// cost two clock reads per packet; the mean is what the batch knows).
	classifyNs obs.Hist
	// queueDepth observes the shard's job-ring occupancy, sampled once
	// per batch as the serve loop picks the batch up.
	queueDepth obs.Hist

	_ obs.CachePad
}

// recordBatch records one served batch: n packets classified in busy
// time, picked up with queued batches still waiting in the ring.
func (sm *shardMetrics) recordBatch(n int, busy time.Duration, queued int) {
	if sm == nil {
		return
	}
	un := uint64(n)
	sm.packets.Add(un)
	sm.batches.Inc()
	sm.busyNs.Add(uint64(busy))
	sm.batchFill.Observe(un)
	if n > 0 {
		sm.classifyNs.ObserveN(uint64(busy)/un, un)
	}
	sm.queueDepth.Observe(uint64(queued))
}

// count adds one emitted batch's outcomes (batch.counts) to the
// per-outcome counters. Nil-safe.
func (sm *shardMetrics) count(c TenantCounts) {
	if sm == nil {
		return
	}
	sm.shed.Add(c.Shed)
	sm.canceled.Add(c.Canceled)
	sm.panics.Add(c.Panicked)
}

// recordCache exports the hits, misses and refused admissions l's flow
// cache took since the lane's last export: one lane per batch, whatever
// the shard holds.
func (sm *shardMetrics) recordCache(l *lane) {
	if sm == nil || l.cache == nil {
		return
	}
	hits, misses, refused := l.cache.Stats()
	sm.cacheHits.Add(hits - l.seenHits)
	sm.cacheMisses.Add(misses - l.seenMisses)
	sm.cacheRefused.Add(refused - l.seenRefused)
	l.seenHits, l.seenMisses, l.seenRefused = hits, misses, refused
}

// Metrics is the engine's instrument block: a fixed array of per-shard
// slots plus run-global instruments. Allocate one with NewMetrics, set it
// on Config.Metrics, and register it on an obs.Registry; it is safe to
// share one Metrics across sequential or concurrent runs (shard i of
// every run writes slot i mod len — slots are atomics, so overlapping
// runs merely merge their numbers).
type Metrics struct {
	shards []shardMetrics
	// reorderHeld observes the packets the sequencer still holds after the
	// drain that follows each batch's arrival (what Stats.MaxReorder is
	// the maximum of).
	reorderHeld obs.Hist
	// undispatched counts packets canceled before any shard saw them
	// (the dispatcher's cut-off tail, attributable to no shard).
	undispatched obs.Counter
	// events, when set, receives rare engine events (currently flow-cache
	// invalidations on generation change).
	events *obs.Ring
}

// DefaultMetricsShards is the slot count NewMetrics uses for n <= 0 —
// comfortably above any realistic shard count on commodity hosts.
const DefaultMetricsShards = 64

// NewMetrics returns a Metrics with maxShards per-shard slots (n <= 0
// uses DefaultMetricsShards). Runs with more shards than slots fold the
// excess shards onto slots modulo the slot count rather than failing.
func NewMetrics(maxShards int) *Metrics {
	if maxShards <= 0 {
		maxShards = DefaultMetricsShards
	}
	return &Metrics{shards: make([]shardMetrics, maxShards)}
}

// SetEvents attaches a flight-recorder ring for engine events.
func (m *Metrics) SetEvents(ring *obs.Ring) {
	if m == nil {
		return
	}
	m.events = ring
}

// shard returns shard i's instrument block (nil for a nil Metrics, which
// makes every downstream record call a no-op).
func (m *Metrics) shard(i int) *shardMetrics {
	if m == nil {
		return nil
	}
	return &m.shards[i%len(m.shards)]
}

// recordUndispatched counts packets the dispatcher cut off before any
// shard saw them. Nil-safe.
func (m *Metrics) recordUndispatched(n uint64) {
	if m == nil || n == 0 {
		return
	}
	m.undispatched.Add(n)
}

// reorderHeldHist returns the sequencer-occupancy histogram (nil for a nil
// Metrics; Hist methods are nil-safe, so the sequencer observes into the
// result unconditionally).
func (m *Metrics) reorderHeldHist() *obs.Hist {
	if m == nil {
		return nil
	}
	return &m.reorderHeld
}

// Register registers the engine collector on reg.
func (m *Metrics) Register(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.Register(m.Collect)
}

// Collect is the obs.Collector for the engine: it walks the per-shard
// slots, skips slots that never saw work, and emits totals, histograms
// and the derived flow-cache hit ratio. Runs only on the scrape path.
func (m *Metrics) Collect(emit func(obs.Sample)) {
	for i := range m.shards {
		sm := &m.shards[i]
		packets := sm.packets.Load()
		shed := sm.shed.Load()
		canceled := sm.canceled.Load()
		if packets == 0 && shed == 0 && canceled == 0 {
			continue
		}
		labels := []obs.Label{{Key: "shard", Value: strconv.Itoa(i)}}
		counter := func(name, help string, v uint64) {
			emit(obs.Sample{Name: name, Help: help, Type: "counter", Labels: labels, Value: float64(v)})
		}
		hist := func(name, help string, h *obs.Hist) {
			hs := h.Snapshot()
			emit(obs.Sample{Name: name, Help: help, Type: "histogram", Labels: labels, Hist: &hs})
		}
		counter("pc_engine_shard_packets_total", "Packets classified per shard.", packets)
		counter("pc_engine_shard_batches_total", "Batches served per shard.", sm.batches.Load())
		counter("pc_engine_shard_shed_total", "Packets shed under overload per shard.", shed)
		counter("pc_engine_shard_canceled_total", "Packets canceled per shard.", canceled)
		counter("pc_engine_shard_panics_total", "Contained classifier panics per shard.", sm.panics.Load())
		counter("pc_engine_shard_busy_ns_total", "Cumulative classification busy time per shard (ns).", sm.busyNs.Load())
		hist("pc_engine_batch_fill", "Packets per served batch.", &sm.batchFill)
		hist("pc_engine_classify_ns", "Per-packet classification time (ns, batch-mean attributed).", &sm.classifyNs)
		hist("pc_engine_queue_depth", "Shard job-ring occupancy at batch pickup.", &sm.queueDepth)
		hits, misses := sm.cacheHits.Load(), sm.cacheMisses.Load()
		if hits+misses > 0 {
			counter("pc_flowcache_hits_total", "Flow-cache hits per shard.", hits)
			counter("pc_flowcache_misses_total", "Flow-cache misses per shard.", misses)
			counter("pc_flowcache_refused_total", "Flow-cache misses a full set did not cache (first miss of a flow not in its set's ghost) per shard.", sm.cacheRefused.Load())
			emit(obs.Sample{Name: "pc_flowcache_hit_ratio",
				Help: "Flow-cache hit fraction per shard.", Type: "gauge",
				Labels: labels, Value: float64(hits) / float64(hits+misses)})
		}
	}
	rh := m.reorderHeld.Snapshot()
	emit(obs.Sample{Name: "pc_engine_reorder_held",
		Help: "Packets the sequencer still held after the drain that follows a batch's arrival (0 = in order).",
		Type: "histogram", Hist: &rh})
	if v := m.undispatched.Load(); v > 0 {
		emit(obs.Sample{Name: "pc_engine_undispatched_total",
			Help: "Packets canceled before dispatch to any shard.",
			Type: "counter", Value: float64(v)})
	}
}
