package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rules"
)

// collect gathers a Metrics snapshot into a name+labels -> value map for
// counters/gauges and a separate map for histogram snapshots.
func collect(m *Metrics) (map[string]float64, map[string]obs.HistSnapshot) {
	vals := map[string]float64{}
	hists := map[string]obs.HistSnapshot{}
	m.Collect(func(s obs.Sample) {
		key := s.Name
		for _, l := range s.Labels {
			key += "{" + l.Key + "=" + l.Value + "}"
		}
		if s.Hist != nil {
			hists[key] = *s.Hist
			return
		}
		vals[key] = s.Value
	})
	return vals, hists
}

// TestMetricsAccountAllPackets: on both serving paths, the per-shard
// packet counters must sum to exactly the packets offered, busy time
// must be non-zero, and the histograms must have observed every batch.
func TestMetricsAccountAllPackets(t *testing.T) {
	_, tree, headers := fixtures(t, 4096)
	for _, cfg := range []Config{
		{Shards: 2, BatchSize: 32, PreserveOrder: true, Metrics: NewMetrics(8)},
		{Shards: 3, BatchSize: 32, FlowCacheFlows: 128, PreserveOrder: true, Metrics: NewMetrics(8)},
	} {
		st, err := Run(tree, cfg, headers, func(Result) {})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		vals, hists := collect(cfg.Metrics)
		var packets, batches, busy float64
		for k, v := range vals {
			switch {
			case strings.HasPrefix(k, "pc_engine_shard_packets_total"):
				packets += v
			case strings.HasPrefix(k, "pc_engine_shard_batches_total"):
				batches += v
			case strings.HasPrefix(k, "pc_engine_shard_busy_ns_total"):
				busy += v
			}
		}
		if int(packets) != len(headers) || st.Packets != len(headers) {
			t.Errorf("%+v: metrics count %v packets, want %d", cfg, packets, len(headers))
		}
		wantBatches := (len(headers) + cfg.BatchSize - 1) / cfg.BatchSize
		if int(batches) < wantBatches {
			t.Errorf("%+v: %v batches recorded, want >= %d", cfg, batches, wantBatches)
		}
		if busy <= 0 {
			t.Errorf("%+v: busy_ns not recorded", cfg)
		}
		var fill uint64
		for k, h := range hists {
			if strings.HasPrefix(k, "pc_engine_batch_fill") {
				fill += h.Sum
			}
		}
		if int(fill) != len(headers) {
			t.Errorf("%+v: batch_fill sums to %d packets, want %d", cfg, fill, len(headers))
		}
		if _, ok := hists["pc_engine_reorder_held"]; !ok {
			t.Errorf("%+v: reorder_held histogram missing", cfg)
		}
	}
}

// TestMetricsFlowCacheAndEvents: with heavy flow reuse the cache
// counters must show hits, the derived ratio must land in (0,1], and a
// mid-run generation bump must record a cache-invalidate event in the
// attached flight recorder.
func TestMetricsFlowCacheAndEvents(t *testing.T) {
	_, _, headers := fixtures(t, 2048)
	cl := &genClassifier{}
	trace := append(append([]rules.Header(nil), headers...), headers...)
	m := NewMetrics(4)
	ring := obs.NewRing(64)
	m.SetEvents(ring)
	// QueueDepth 1 keeps classification at most a few batches ahead of
	// emission, so a bump at the first emitted result is guaranteed to
	// land while most batches are still unclassified — the invalidation
	// must fire on every shard.
	bumped := false
	_, err := Run(cl, Config{Shards: 2, FlowCacheFlows: 4096, BatchSize: 64, QueueDepth: 1, PreserveOrder: true, Metrics: m},
		trace, func(Result) {
			if !bumped {
				cl.gen.Add(1)
				bumped = true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := collect(m)
	var hits, misses float64
	ratioSeen := false
	for k, v := range vals {
		switch {
		case strings.HasPrefix(k, "pc_flowcache_hits_total"):
			hits += v
		case strings.HasPrefix(k, "pc_flowcache_misses_total"):
			misses += v
		case strings.HasPrefix(k, "pc_flowcache_hit_ratio"):
			ratioSeen = true
			if v <= 0 || v > 1 {
				t.Errorf("%s = %v outside (0,1]", k, v)
			}
		}
	}
	if hits == 0 {
		t.Error("repeated trace recorded no flow-cache hits")
	}
	if misses == 0 {
		t.Error("cold flows recorded no misses")
	}
	if !ratioSeen {
		t.Error("hit ratio gauge missing")
	}
	invalidations := uint64(0)
	for _, kc := range ring.KindCounts() {
		if kc.Kind == obs.EventCacheInvalidate {
			invalidations = kc.Count
		}
	}
	if invalidations == 0 {
		t.Error("generation bump recorded no cache-invalidate events")
	}
}

// TestMetricsShedCanceledPanics: the failure-path counters must agree
// with Stats on both serving paths.
func TestMetricsShedCanceledPanics(t *testing.T) {
	_, tree, headers := fixtures(t, 4096)

	// Shed: tiny ring, dawdling classifier, tail-drop policy.
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 30 * time.Microsecond}
	for _, cfg := range []Config{
		{Shards: 2, QueueDepth: 1, BatchSize: 16, Overload: OverloadShed, Metrics: NewMetrics(8)},
		{Shards: 4, QueueDepth: 1, BatchSize: 16, Overload: OverloadShed, Metrics: NewMetrics(8)},
	} {
		st, err := Run(slow, cfg, headers, func(Result) {})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		vals, _ := collect(cfg.Metrics)
		var shed float64
		for k, v := range vals {
			if strings.HasPrefix(k, "pc_engine_shard_shed_total") {
				shed += v
			}
		}
		if int(shed) != st.Shed {
			t.Errorf("%+v: metrics shed %v, Stats.Shed %d", cfg, shed, st.Shed)
		}
	}

	// Panics: per-packet containment counted per shard.
	panicky := &faultinject.PanickyClassifier{Inner: tree, EveryN: 97}
	m := NewMetrics(8)
	st, err := Run(panicky, Config{Shards: 4, Metrics: m}, headers, func(Result) {})
	if err == nil {
		t.Fatal("expected a contained-panics run error")
	}
	vals, _ := collect(m)
	var panics float64
	for k, v := range vals {
		if strings.HasPrefix(k, "pc_engine_shard_panics_total") {
			panics += v
		}
	}
	if int(panics) != st.Panics || st.Panics == 0 {
		t.Errorf("metrics panics %v, Stats.Panics %d", panics, st.Panics)
	}

	// Canceled: a pre-canceled context cancels everything; emitted
	// cancels plus the undispatched tail must cover the whole trace.
	m = NewMetrics(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err = RunContext(ctx, tree, Config{Shards: 4, Metrics: m}, headers, func(Result) {})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	vals, _ = collect(m)
	var canceled float64
	for k, v := range vals {
		if strings.HasPrefix(k, "pc_engine_shard_canceled_total") || k == "pc_engine_undispatched_total" {
			canceled += v
		}
	}
	if int(canceled) != st.Canceled || st.Canceled != len(headers) {
		t.Errorf("metrics canceled %v, Stats.Canceled %d, offered %d",
			canceled, st.Canceled, len(headers))
	}
}

// TestMetricsAccumulateAcrossRuns: one Metrics attached to two runs must
// report their sum — the monotonic-counter contract a scrape endpoint
// relies on.
func TestMetricsAccumulateAcrossRuns(t *testing.T) {
	_, tree, headers := fixtures(t, 1024)
	m := NewMetrics(4)
	cfg := Config{Shards: 2, Metrics: m}
	for i := 0; i < 2; i++ {
		if _, err := Run(tree, cfg, headers, func(Result) {}); err != nil {
			t.Fatal(err)
		}
	}
	vals, _ := collect(m)
	var packets float64
	for k, v := range vals {
		if strings.HasPrefix(k, "pc_engine_shard_packets_total") {
			packets += v
		}
	}
	if int(packets) != 2*len(headers) {
		t.Errorf("two runs recorded %v packets, want %d", packets, 2*len(headers))
	}
}

// TestMetricsRegistryExposition: the engine collector registered on an
// obs.Registry must produce the key Prometheus series the CI smoke job
// scrapes for.
func TestMetricsRegistryExposition(t *testing.T) {
	_, tree, headers := fixtures(t, 2048)
	trace := append(append([]rules.Header(nil), headers...), headers...)
	m := NewMetrics(4)
	if _, err := Run(tree, Config{Shards: 2, FlowCacheFlows: 256, Metrics: m}, trace, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pc_engine_shard_packets_total{shard=\"0\"}",
		"pc_engine_shard_busy_ns_total",
		"pc_engine_queue_depth_bucket",
		"pc_engine_batch_fill_count",
		"pc_flowcache_hit_ratio",
		"pc_engine_reorder_held_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
