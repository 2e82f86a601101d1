package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/expcuts"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
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
// counters must show hits, the derived ratio must land in (0,1], full
// sets must show refused first misses (about 1 024 flows per shard in 128
// sets of 8), and a mid-run generation bump must record a
// cache-invalidate event in the attached flight recorder.
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
	_, err := Run(cl, Config{Shards: 2, FlowCacheFlows: 1024, BatchSize: 64, QueueDepth: 1, PreserveOrder: true, Metrics: m},
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
	var hits, misses, refused float64
	ratioSeen := false
	for k, v := range vals {
		switch {
		case strings.HasPrefix(k, "pc_flowcache_hits_total"):
			hits += v
		case strings.HasPrefix(k, "pc_flowcache_misses_total"):
			misses += v
		case strings.HasPrefix(k, "pc_flowcache_refused_total"):
			refused += v
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
	if refused == 0 || refused >= misses {
		t.Errorf("%v refused admissions of %v misses, want some but not all", refused, misses)
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
// with Stats — canceled together with the undispatched tail — on every
// entry point, and on the tenant path the per-tenant counts must sum to
// the same totals. Shed and canceled batches that never reach a shard
// count as much as those a shard served.
func TestMetricsShedCanceledPanics(t *testing.T) {
	_, tree, headers := fixtures(t, 4096)
	// A dawdling classifier behind a one-batch ring: shed under the
	// tail-drop policy (cfg's, or on the tenant path the lane's own), and a
	// run canceled at its first result still has batches queued, half-built
	// and never pulled.
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 30 * time.Microsecond}
	panicky := &faultinject.PanickyClassifier{Inner: tree, EveryN: 97}
	shed := func(shards int) Config {
		return Config{Shards: shards, QueueDepth: 1, BatchSize: 16, Overload: OverloadShed}
	}
	slowRing := Config{Shards: 2, QueueDepth: 1, BatchSize: 16}

	type runFunc func(ctx context.Context, cfg Config, emit func()) (Stats, map[uint32]*TenantCounts, error)
	slice := func(cl Classifier) runFunc {
		return func(ctx context.Context, cfg Config, emit func()) (Stats, map[uint32]*TenantCounts, error) {
			st, err := RunContext(ctx, cl, cfg, headers, func(Result) { emit() })
			return st, nil, err
		}
	}
	stream := func(cl Classifier) runFunc {
		return func(ctx context.Context, cfg Config, emit func()) (Stats, map[uint32]*TenantCounts, error) {
			st, err := RunStream(ctx, cl, cfg, &SliceSource{Headers: headers}, func(Result) { emit() })
			return st, nil, err
		}
	}
	tenants := func(res mapResolver, ids ...uint32) runFunc {
		pkts := tenantStream(headers, ids)
		return func(ctx context.Context, cfg Config, emit func()) (Stats, map[uint32]*TenantCounts, error) {
			ts, err := RunTenants(ctx, res, cfg, pkts, func(TenantResult) { emit() })
			return ts.Stats, ts.Tenants, err
		}
	}
	const (
		none      = iota
		precancel // cancel before the run starts
		midrun    // cancel at the first emitted result
	)
	for _, c := range []struct {
		name   string
		run    runFunc
		cfg    Config
		cancel int
		want   func(Stats) bool // the failure path was taken
	}{
		{"slice/shed/2 shards", slice(slow), shed(2), none, func(st Stats) bool { return st.Shed > 0 }},
		{"slice/shed/4 shards", slice(slow), shed(4), none, func(st Stats) bool { return st.Shed > 0 }},
		{"slice/panics", slice(panicky), Config{Shards: 4}, none, func(st Stats) bool { return st.Panics > 0 }},
		{"slice/precanceled", slice(tree), Config{Shards: 4}, precancel,
			func(st Stats) bool { return st.Canceled == len(headers) }},
		{"slice/canceled", slice(slow), slowRing, midrun, func(st Stats) bool { return st.Canceled > 0 }},
		{"stream/shed", stream(slow), shed(2), none, func(st Stats) bool { return st.Shed > 0 }},
		{"stream/panics", stream(panicky), Config{Shards: 4}, none, func(st Stats) bool { return st.Panics > 0 }},
		{"stream/canceled", stream(slow), slowRing, midrun, func(st Stats) bool { return st.Canceled > 0 }},
		{"tenants/unknown tenant", tenants(mapResolver{1: asLane(tree, false)}, 1, 9), Config{Shards: 2}, none,
			func(st Stats) bool { return st.Shed == len(headers)/2 }},
		{"tenants/shedding lane", tenants(mapResolver{1: asLane(slow, true)}, 1), slowRing, none,
			func(st Stats) bool { return st.Shed > 0 }},
		{"tenants/panicking lane", tenants(mapResolver{1: asLane(panicky, false)}, 1), Config{Shards: 4}, none,
			func(st Stats) bool { return st.Panics > 0 }},
		{"tenants/canceled", tenants(mapResolver{1: asLane(slow, false)}, 1), slowRing, midrun,
			func(st Stats) bool { return st.Canceled > 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel == precancel {
				cancel()
			}
			cfg := c.cfg
			cfg.Metrics = NewMetrics(8)
			st, tally, err := c.run(ctx, cfg, func() {
				if c.cancel == midrun {
					cancel()
				}
			})
			if !c.want(st) {
				t.Fatalf("the run missed its failure path: %+v", st)
			}
			if wantErr := st.Panics > 0 || c.cancel != none; (err != nil) != wantErr {
				t.Errorf("err = %v with %d panics, canceled %v", err, st.Panics, c.cancel != none)
			}
			vals, _ := collect(cfg.Metrics)
			var shed, canceled, panics float64
			for k, v := range vals {
				switch {
				case strings.HasPrefix(k, "pc_engine_shard_shed_total"):
					shed += v
				case strings.HasPrefix(k, "pc_engine_shard_canceled_total"), k == "pc_engine_undispatched_total":
					canceled += v
				case strings.HasPrefix(k, "pc_engine_shard_panics_total"):
					panics += v
				}
			}
			if int(shed) != st.Shed || int(canceled) != st.Canceled || int(panics) != st.Panics {
				t.Errorf("metrics shed %v canceled %v panics %v, Stats %d / %d / %d",
					shed, canceled, panics, st.Shed, st.Canceled, st.Panics)
			}
			if tally == nil {
				return
			}
			var sum TenantCounts
			for _, tc := range tally {
				sum.add(*tc)
			}
			if int(sum.Classified) != st.Packets || int(sum.Shed) != st.Shed ||
				int(sum.Canceled) != st.Canceled || int(sum.Panicked) != st.Panics {
				t.Errorf("tenant counts sum to %+v, Stats %+v", sum, st)
			}
		})
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

// BenchmarkRunTenantsMetrics prices Config.Metrics on the tenant path:
// 2^18 CR headers in runs of 64 packets per tenant, cycling over 1 or 64
// tenants that share one ExpCuts tree, on 2 shards whose tenant lanes
// carry 256-flow caches, with metrics off and on. The per-batch
// instrumentation must cost the same at 64 resident lanes as at one.
func BenchmarkRunTenantsMetrics(b *testing.B) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 200, Seed: 401})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 1 << 18, Seed: 402, MatchFraction: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	for _, tenants := range []int{1, 64} {
		res := mapResolver{}
		for tid := 1; tid <= tenants; tid++ {
			res[uint32(tid)] = asLane(tree, false)
		}
		pkts := make([]TenantPacket, len(tr.Headers))
		for i, h := range tr.Headers {
			pkts[i] = TenantPacket{Tenant: uint32(i/64%tenants + 1), Header: h}
		}
		for _, metrics := range []bool{false, true} {
			b.Run(fmt.Sprintf("tenants=%d/metrics=%v", tenants, metrics), func(b *testing.B) {
				cfg := Config{Shards: 2, FlowCacheFlows: 256, PreserveOrder: true}
				if metrics {
					cfg.Metrics = NewMetrics(2)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := RunTenants(context.Background(), res, cfg, pkts, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
			})
		}
	}
}
