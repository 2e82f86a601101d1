package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flowcache"
	"repro/internal/obs"
	"repro/internal/rules"
)

// stubLane is a TenantLane over any classifier. The embedded interface
// keeps the method set minimal, so the engine's dynamic
// rules.BatchClassifier and generation detection see a bare per-packet
// classifier.
type stubLane struct {
	Classifier
	shed bool
}

func (s *stubLane) ShedOnOverload() bool { return s.shed }

// batchLane is stubLane over a batched classifier, so the engine takes
// the same batched path it takes for the bare classifier.
type batchLane struct {
	rules.BatchClassifier
	shed bool
}

func (b *batchLane) ShedOnOverload() bool { return b.shed }

// asLane wraps cl as a TenantLane with the given overload policy, keeping
// its batched path when it has one.
func asLane(cl Classifier, shed bool) TenantLane {
	if bc, ok := cl.(rules.BatchClassifier); ok {
		return &batchLane{BatchClassifier: bc, shed: shed}
	}
	return &stubLane{Classifier: cl, shed: shed}
}

// mapResolver resolves lanes from a plain map; a missing key yields the
// untyped nil the TenantResolver contract requires.
type mapResolver map[uint32]TenantLane

func (m mapResolver) Lane(id uint32) TenantLane { return m[id] }

// tenantStream interleaves the headers across the given tenants
// round-robin.
func tenantStream(headers []rules.Header, tenants []uint32) []TenantPacket {
	pkts := make([]TenantPacket, len(headers))
	for i, h := range headers {
		pkts[i] = TenantPacket{Tenant: tenants[i%len(tenants)], Header: h}
	}
	return pkts
}

// checkTenantIdentity asserts the accounting contract: for every tenant,
// offered == classified + shed + canceled + panicked, and offered matches
// an independent recount of the input stream.
func checkTenantIdentity(t *testing.T, ts TenantStats, pkts []TenantPacket) {
	t.Helper()
	offeredWant := map[uint32]uint64{}
	for _, p := range pkts {
		offeredWant[p.Tenant]++
	}
	for tid, c := range ts.Tenants {
		if c.Offered != c.Classified+c.Shed+c.Canceled+c.Panicked {
			t.Errorf("tenant %d: offered %d != %d classified + %d shed + %d canceled + %d panicked",
				tid, c.Offered, c.Classified, c.Shed, c.Canceled, c.Panicked)
		}
		if c.Offered != offeredWant[tid] {
			t.Errorf("tenant %d: offered %d, stream carried %d", tid, c.Offered, offeredWant[tid])
		}
		delete(offeredWant, tid)
	}
	for tid, n := range offeredWant {
		if n > 0 {
			t.Errorf("tenant %d: %d packets offered but tenant absent from stats", tid, n)
		}
	}
}

// TestRunTenantsMatchesPerTenantOracle: three tenants, three different
// rule tables (fixed matches = tenant ID), interleaved in one stream.
// Every result must carry its own tenant's answer in arrival order —
// the basic no-cross-classification contract — for 1, 3 and 8 shards.
func TestRunTenantsMatchesPerTenantOracle(t *testing.T) {
	_, _, headers := fixtures(t, 6000)
	res := mapResolver{
		1: &stubLane{Classifier: faultinject.FixedClassifier{Match: 1}},
		2: &stubLane{Classifier: faultinject.FixedClassifier{Match: 2}},
		3: &stubLane{Classifier: faultinject.FixedClassifier{Match: 3}},
	}
	pkts := tenantStream(headers, []uint32{1, 2, 3})
	for _, shards := range []int{1, 3, 8} {
		var prev uint64
		first := true
		seen := 0
		ts, err := RunTenants(context.Background(), res,
			Config{Shards: shards, PreserveOrder: true}, pkts,
			func(r TenantResult) {
				if r.Err != nil {
					t.Fatalf("shards=%d seq %d: %v", shards, r.Seq, r.Err)
				}
				if !first && r.Seq != prev+1 {
					t.Fatalf("shards=%d: out of order, %d after %d", shards, r.Seq, prev)
				}
				first = false
				prev = r.Seq
				if want := pkts[r.Seq].Tenant; r.Tenant != want {
					t.Fatalf("shards=%d seq %d: attributed to tenant %d, stream says %d",
						shards, r.Seq, r.Tenant, want)
				}
				if r.Match != int(r.Tenant) {
					t.Fatalf("shards=%d seq %d: tenant %d got match %d — cross-tenant classification",
						shards, r.Seq, r.Tenant, r.Match)
				}
				if want := shardOf(r.Tenant, r.Header, shards); r.Shard != want {
					t.Fatalf("shards=%d seq %d: shard %d, want %d", shards, r.Seq, r.Shard, want)
				}
				seen++
			})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if seen != len(pkts) || ts.Packets != len(pkts) {
			t.Fatalf("shards=%d: emitted %d, Stats.Packets %d, want %d", shards, seen, ts.Packets, len(pkts))
		}
		checkTenantIdentity(t, ts, pkts)
	}
}

// TestTenantAccountingIdentity is the per-tenant accounting conformance
// test: a fast victim on the block policy next to a slow hostile tenant
// on the shed policy, tiny queues, shards 1/3/8. The identity must hold
// per tenant per shard on every path, the hostile tenant must actually
// shed, and the blocking victim must never lose a packet to its
// neighbor's pressure.
func TestTenantAccountingIdentity(t *testing.T) {
	_, tree, headers := fixtures(t, 4096)
	for _, shards := range []int{1, 3, 8} {
		res := mapResolver{
			7: &stubLane{Classifier: tree}, // victim: fast, blocks on overload
			9: &stubLane{ // hostile: dawdles, sheds on overload
				Classifier: &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: time.Millisecond},
				shed:       true,
			},
		}
		pkts := tenantStream(headers, []uint32{7, 9})
		ts, err := RunTenants(context.Background(), res,
			Config{Shards: shards, QueueDepth: 1, BatchSize: 16, PreserveOrder: true}, pkts, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkTenantIdentity(t, ts, pkts)

		victim, hostile := ts.Tenants[7], ts.Tenants[9]
		if victim.Shed != 0 || victim.Canceled != 0 {
			t.Errorf("shards=%d: blocking victim lost packets (%d shed, %d canceled)",
				shards, victim.Shed, victim.Canceled)
		}
		if victim.Classified != victim.Offered {
			t.Errorf("shards=%d: victim classified %d of %d offered",
				shards, victim.Classified, victim.Offered)
		}
		if hostile.Shed == 0 {
			t.Errorf("shards=%d: hostile tenant shed nothing past a depth-1 queue", shards)
		}
		// Aggregate stats must agree with the per-tenant sums.
		var all TenantCounts
		for _, tc := range ts.Tenants {
			all.add(*tc)
		}
		if uint64(ts.Packets) != all.Classified || uint64(ts.Shed) != all.Shed {
			t.Errorf("shards=%d: aggregate (%d classified, %d shed) != tenant sums (%d, %d)",
				shards, ts.Packets, ts.Shed, all.Classified, all.Shed)
		}
	}
}

// TestRunTenantsUnknownTenant: packets for an unregistered tenant are
// refused with ErrUnknownTenant (which is an ErrShed), accounted as
// shed under that tenant ID, and never classified — while the known
// tenant's stream is untouched.
func TestRunTenantsUnknownTenant(t *testing.T) {
	if !errors.Is(ErrUnknownTenant, ErrShed) {
		t.Fatal("ErrUnknownTenant does not unwrap to ErrShed")
	}
	_, _, headers := fixtures(t, 2000)
	res := mapResolver{1: &stubLane{Classifier: faultinject.FixedClassifier{Match: 1}}}
	pkts := tenantStream(headers, []uint32{1, 666})
	refused := 0
	ts, err := RunTenants(context.Background(), res,
		Config{Shards: 3, PreserveOrder: true}, pkts,
		func(r TenantResult) {
			if r.Tenant == 666 {
				if !errors.Is(r.Err, ErrUnknownTenant) {
					t.Fatalf("unknown tenant seq %d: err = %v, want ErrUnknownTenant", r.Seq, r.Err)
				}
				refused++
			} else if r.Err != nil {
				t.Fatalf("known tenant seq %d: %v", r.Seq, r.Err)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	checkTenantIdentity(t, ts, pkts)
	tc := ts.Tenants[666]
	if tc.Shed != tc.Offered || tc.Classified != 0 {
		t.Errorf("unknown tenant: %+v, want everything shed", *tc)
	}
	if uint64(refused) != tc.Offered {
		t.Errorf("emitted %d refusals, stats say %d offered", refused, tc.Offered)
	}
	if known := ts.Tenants[1]; known.Classified != known.Offered {
		t.Errorf("known tenant disturbed by unknown neighbor: %+v", *known)
	}
}

// TestRunTenantsCancelAccounting: a mid-run deadline must surface as
// canceled results and an undispatched tail, with the identity intact
// for every tenant — no packet silently vanishes at cancellation.
func TestRunTenantsCancelAccounting(t *testing.T) {
	_, tree, headers := fixtures(t, 20000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 100 * time.Microsecond}
	res := mapResolver{
		1: &stubLane{Classifier: slow},
		2: &stubLane{Classifier: slow},
	}
	pkts := tenantStream(headers, []uint32{1, 2})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	ts, err := RunTenants(ctx, res, Config{Shards: 3, PreserveOrder: true}, pkts, nil)
	if err == nil {
		t.Fatal("deadline expiry surfaced no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	checkTenantIdentity(t, ts, pkts)
	var all TenantCounts
	for _, tc := range ts.Tenants {
		all.add(*tc)
	}
	if all.Canceled == 0 {
		t.Error("nothing accounted canceled under a 15ms deadline on 2s of work")
	}
	if all.Offered != uint64(len(pkts)) {
		t.Errorf("offered %d, want %d", all.Offered, len(pkts))
	}
}

// TestRunTenantsPanicAttribution: a tenant whose classifier panics gets
// its failures accounted as its own Panicked — per shard, never bleeding
// into the co-resident tenant — and the run reports the contained panics.
func TestRunTenantsPanicAttribution(t *testing.T) {
	_, tree, headers := fixtures(t, 2048)
	res := mapResolver{
		1: &stubLane{Classifier: tree},
		2: &stubLane{Classifier: &faultinject.PanickyClassifier{Inner: tree, EveryN: 5}},
	}
	pkts := tenantStream(headers, []uint32{1, 2})
	ts, err := RunTenants(context.Background(), res,
		Config{Shards: 3, PreserveOrder: true}, pkts, nil)
	if err == nil {
		t.Fatal("contained panics surfaced no error")
	}
	checkTenantIdentity(t, ts, pkts)
	if ts.Tenants[1].Panicked != 0 {
		t.Errorf("innocent tenant charged %d panics", ts.Tenants[1].Panicked)
	}
	if got := ts.Tenants[2].Panicked; got == 0 {
		t.Error("panicky tenant accounted no panics")
	} else if uint64(ts.Panics) != got {
		t.Errorf("Stats.Panics %d != tenant 2's %d", ts.Panics, got)
	}
}

// TestRunTenantsPartitionEviction: more tenants than resident lanes per
// shard, each lane with its own flow cache. Reclaim and re-admission must
// never serve one tenant a neighbor's cached answer, and each reclaim must
// land a tenant-evicted event on the flight recorder.
func TestRunTenantsPartitionEviction(t *testing.T) {
	_, _, headers := fixtures(t, 8000)
	res := mapResolver{}
	tenants := make([]uint32, DefaultTenantPartitions+1)
	for i := range tenants {
		tid := uint32(i + 1)
		tenants[i] = tid
		res[tid] = &stubLane{Classifier: faultinject.FixedClassifier{Match: int(tid)}}
	}
	m := NewMetrics(2)
	ring := obs.NewRing(256)
	m.SetEvents(ring)
	pkts := tenantStream(headers, tenants)
	// One tenant more than there are lanes, rotating, never stays
	// resident long enough to hit; a two-tenant tail over a few flows does.
	for rep := 0; rep < 50; rep++ {
		pkts = append(pkts, tenantStream(headers[:32], tenants[:2])...)
	}
	ts, err := RunTenants(context.Background(), res,
		Config{Shards: 2, PreserveOrder: true, FlowCacheFlows: 64, Metrics: m},
		pkts,
		func(r TenantResult) {
			if r.Err != nil {
				t.Fatalf("seq %d: %v", r.Seq, r.Err)
			}
			if r.Match != int(r.Tenant) {
				t.Fatalf("seq %d: tenant %d served match %d — a neighbor's cache line",
					r.Seq, r.Tenant, r.Match)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	checkTenantIdentity(t, ts, pkts)
	evicted := 0
	for _, ev := range ring.Snapshot() {
		if ev.Kind == obs.EventTenantEvicted {
			evicted++
		}
	}
	if evicted == 0 {
		t.Errorf("%d tenants over %d lanes per shard recorded no tenant-evicted events",
			len(tenants), DefaultTenantPartitions)
	}
	// Every classified packet went through some tenant lane's cache, so the
	// exported cache counters must account for all of them — including
	// the packets served by lanes that were reclaimed since.
	vals, _ := collect(m)
	var hits, misses float64
	for k, v := range vals {
		switch {
		case strings.HasPrefix(k, "pc_flowcache_hits_total"):
			hits += v
		case strings.HasPrefix(k, "pc_flowcache_misses_total"):
			misses += v
		}
	}
	if hits == 0 || int(hits+misses) != ts.Packets || ts.Packets != len(pkts) {
		t.Errorf("exported flow-cache hits %v + misses %v, want the %d packets classified (of %d) and some hits",
			hits, misses, ts.Packets, len(pkts))
	}
}

// TestTenantShardOfSpreads: the shard pin is deterministic, in range,
// and tenant-dependent — the same 5-tuple under different tenants must
// not all collapse onto one shard.
func TestTenantShardOfSpreads(t *testing.T) {
	_, _, headers := fixtures(t, 200)
	for _, shards := range []int{2, 3, 8} {
		differs := false
		for _, h := range headers {
			a := shardOf(1, h, shards)
			if a != shardOf(1, h, shards) {
				t.Fatalf("shardOf not deterministic for %v", h)
			}
			if a < 0 || a >= shards {
				t.Fatalf("shardOf out of range: %d of %d", a, shards)
			}
			if shardOf(2, h, shards) != a {
				differs = true
			}
		}
		if !differs {
			t.Errorf("shards=%d: tenant ID never changed the shard pin", shards)
		}
	}
}

// TestTenantSteadyStateDoesNotAllocate: the per-batch tenant path —
// lane resolution, batched classification, through the lane's flow cache
// or without one — must stay allocation-free once a tenant's lane is
// warm, exactly like the single-table sharded hot path.
func TestTenantSteadyStateDoesNotAllocate(t *testing.T) {
	_, tree, headers := fixtures(t, 64)
	for _, flows := range []int{0, 128} {
		t.Run(fmt.Sprintf("flows=%d", flows), func(t *testing.T) {
			s := newTenantShard(t, mapResolver{5: &stubLane{Classifier: tree}}, flows)
			j := tenantBatch(5, headers)
			l, err := s.tenants.laneFor(5)
			if err != nil {
				t.Fatalf("laneFor(5): %v", err)
			}
			if (l.cache != nil) != (flows > 0) {
				t.Fatalf("flows=%d built a lane with cache %v", flows, l.cache)
			}
			l.classify(j, nil, nil) // warm lane and cache
			if n := testing.AllocsPerRun(100, func() {
				l, _ := s.tenants.laneFor(5)
				l.classify(j, nil, nil)
			}); n != 0 {
				t.Errorf("warm tenant batch path allocates %v/op, want 0", n)
			}
		})
	}
}

// TestTenantLaneRebind: when the resolver starts returning a different
// lane for a tenant (remove + re-add), the shard must rebuild its lane
// state and drop the stale lane's flow cache instead of serving the old
// table from cache.
func TestTenantLaneRebind(t *testing.T) {
	_, _, headers := fixtures(t, 64)
	res := mapResolver{5: &stubLane{Classifier: faultinject.FixedClassifier{Match: 1}}}
	s := newTenantShard(t, res, 128)
	j := tenantBatch(5, headers)
	classify := func() {
		t.Helper()
		l, err := s.tenants.laneFor(5)
		if err != nil {
			t.Fatalf("laneFor(5): %v", err)
		}
		l.classify(j, nil, nil)
	}
	classify()
	if j.matches[0] != 1 {
		t.Fatalf("before rebind: match %d, want 1", j.matches[0])
	}

	res[5] = &stubLane{Classifier: faultinject.FixedClassifier{Match: 2}}
	classify()
	for i, m := range j.matches {
		if m != 2 {
			t.Fatalf("after rebind: seq %d served stale match %d from the old lane's cache", i, m)
		}
	}

	// And a vanished tenant drops its state entirely.
	delete(res, 5)
	if l, err := s.tenants.laneFor(5); l != nil || !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("laneFor after tenant removal = (%v, %v), want ErrUnknownTenant", l, err)
	}
	if _, ok := s.tenants.lanes[5]; ok {
		t.Fatal("stale lane state retained after tenant removal")
	}
}

// newTenantShard builds the one shard of a multi-tenant run over res, its
// lanes with flows-flow caches (none for 0) and a flight recorder.
func newTenantShard(t *testing.T, res TenantResolver, flows int) *shard {
	t.Helper()
	cfg := Config{Shards: 1, FlowCacheFlows: flows, Metrics: NewMetrics(1)}
	cfg.Metrics.SetEvents(obs.NewRing(64))
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	shards, err := makeShards(nil, res, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	return shards[0]
}

// tenantBatch is one batch of tenant tid's packets, numbered from 0.
func tenantBatch(tid uint32, headers []rules.Header) *batch {
	j := (&batchPool{size: len(headers)}).get()
	j.tenant = tid
	for i, h := range headers {
		j.seqs, j.hs = append(j.seqs, uint64(i)), append(j.hs, h)
	}
	return j
}

// fixedTenants resolves tenants 1..n, each to a lane whose every answer is
// its own ID.
func fixedTenants(n int) mapResolver {
	res := mapResolver{}
	for tid := 1; tid <= n; tid++ {
		res[uint32(tid)] = &stubLane{Classifier: faultinject.FixedClassifier{Match: tid}}
	}
	return res
}

// evictions counts the tenant-evicted events on s's flight recorder.
func evictions(s *shard) (n int) {
	for _, ev := range s.events.Snapshot() {
		if ev.Kind == obs.EventTenantEvicted {
			n++
		}
	}
	return n
}

// TestTenantLanesReclaimLeastRecent: at DefaultTenantPartitions resident
// lanes, admitting one more tenant reclaims the least recently served
// lane — not the oldest admitted, nor the newest — with its cache and one
// tenant-evicted event, while the survivors keep their lanes and caches.
func TestTenantLanesReclaimLeastRecent(t *testing.T) {
	_, _, headers := fixtures(t, 8)
	s := newTenantShard(t, fixedTenants(DefaultTenantPartitions+1), 16)
	serve := func(tid uint32) *lane {
		t.Helper()
		l, err := s.tenants.laneFor(tid)
		if err != nil {
			t.Fatalf("laneFor(%d): %v", tid, err)
		}
		l.classify(tenantBatch(tid, headers), nil, nil)
		return l
	}
	for tid := uint32(1); tid <= DefaultTenantPartitions; tid++ {
		serve(tid)
	}
	first := serve(1) // tenant 1 is now the most recent, tenant 2 the least
	serve(DefaultTenantPartitions + 1)

	lanes := s.tenants.lanes
	if len(lanes) != DefaultTenantPartitions {
		t.Fatalf("%d lanes resident, want %d", len(lanes), DefaultTenantPartitions)
	}
	if _, ok := lanes[2]; ok {
		t.Error("tenant 2, the least recently served, kept its lane")
	}
	if lanes[1] != first {
		t.Error("tenant 1, served just before the admission, lost its lane")
	}
	if hits, _, _ := lanes[1].cache.Stats(); hits == 0 {
		t.Error("tenant 1's cache never hit: its working set did not survive")
	}
	if n := evictions(s); n != 1 {
		t.Errorf("%d tenant-evicted events, want 1", n)
	}
}

// TestTenantLanesStatsNeverFall: the shard's exported cache counters take
// the served lane's delta after every batch, so they must never fall —
// not when a lane is reclaimed, rebound or dropped for an unknown tenant
// — and must account for every packet a cache served. Only the reclaim
// records a tenant-evicted event.
func TestTenantLanesStatsNeverFall(t *testing.T) {
	_, _, headers := fixtures(t, 32)
	res := fixedTenants(DefaultTenantPartitions + 2)
	s := newTenantShard(t, res, 64)
	var lastHits, lastMisses, served uint64
	step := func(what string, tid uint32) {
		t.Helper()
		if l, err := s.tenants.laneFor(tid); err == nil {
			l.classify(tenantBatch(tid, headers), nil, nil)
			s.m.recordCache(l)
			served += uint64(len(headers))
		}
		hits, misses := s.m.cacheHits.Load(), s.m.cacheMisses.Load()
		if hits < lastHits || misses < lastMisses {
			t.Fatalf("after %s: exported counters fell from %d/%d to %d/%d", what, lastHits, lastMisses, hits, misses)
		}
		if hits+misses != served {
			t.Fatalf("after %s: %d hits + %d misses, %d packets served", what, hits, misses, served)
		}
		lastHits, lastMisses = hits, misses
	}
	for tid := uint32(1); tid <= DefaultTenantPartitions; tid++ {
		step("admission", tid)
		step("a second batch", tid)
	}
	res[3] = &stubLane{Classifier: faultinject.FixedClassifier{Match: 3}}
	step("a rebind", 3)
	delete(res, 4)
	step("an unknown-tenant drop", 4)
	step("a second drop of the same tenant", 4)
	if n := evictions(s); n != 0 {
		t.Errorf("rebind and unknown-tenant drop recorded %d tenant-evicted events", n)
	}
	step("an admission into the dropped lane's room", DefaultTenantPartitions+1)
	step("a reclaim", DefaultTenantPartitions+2)
	if n := evictions(s); n != 1 {
		t.Errorf("%d tenant-evicted events after one reclaim, want 1", n)
	}
}

// TestTenantLanesDropWithoutEviction: a rebound tenant's lane is replaced
// by one with an empty cache, and an unknown tenant's lane is forgotten;
// neither is a reclaim, so neither records a tenant-evicted event.
func TestTenantLanesDropWithoutEviction(t *testing.T) {
	_, _, headers := fixtures(t, 8)
	res := fixedTenants(4)
	s := newTenantShard(t, res, 16)
	for tid := uint32(1); tid <= 4; tid++ {
		l, err := s.tenants.laneFor(tid)
		if err != nil {
			t.Fatalf("laneFor(%d): %v", tid, err)
		}
		l.classify(tenantBatch(tid, headers), nil, nil)
	}
	old := s.tenants.lanes[3]
	res[3] = &stubLane{Classifier: faultinject.FixedClassifier{Match: 3}}
	l, err := s.tenants.laneFor(3)
	if err != nil {
		t.Fatalf("laneFor(3) after rebind: %v", err)
	}
	if l == old {
		t.Error("rebound tenant 3 kept its old lane")
	}
	if n := l.cache.Len(); n != 0 {
		t.Errorf("rebound tenant 3's cache holds %d flows, want 0", n)
	}
	delete(res, 4)
	if _, err := s.tenants.laneFor(4); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("laneFor(4) after removal: err = %v, want ErrUnknownTenant", err)
	}
	if _, ok := s.tenants.lanes[4]; ok {
		t.Error("unknown tenant 4 kept its lane")
	}
	if n := len(s.tenants.lanes); n != 3 {
		t.Errorf("%d lanes resident, want 3", n)
	}
	if n := evictions(s); n != 0 {
		t.Errorf("rebind and unknown-tenant drop recorded %d tenant-evicted events", n)
	}
}

// TestTenantLanesIsolateCaches: two tenants' lanes never share cache
// entries for identical 5-tuples, and one tenant's generation change
// stales only its own cache — the neighbor keeps hitting without
// re-consulting its slow path.
func TestTenantLanesIsolateCaches(t *testing.T) {
	_, _, headers := fixtures(t, 16)
	a, b := &genClassifier{}, &genClassifier{}
	a.gen.Store(1)
	b.gen.Store(2)
	s := newTenantShard(t, mapResolver{1: genLane{a}, 2: genLane{b}}, 64)
	serve := func(tid uint32, want int) *lane {
		t.Helper()
		l, err := s.tenants.laneFor(tid)
		if err != nil {
			t.Fatalf("laneFor(%d): %v", tid, err)
		}
		j := tenantBatch(tid, headers)
		l.classify(j, nil, nil)
		for i, m := range j.matches[:len(headers)] {
			if m != want {
				t.Fatalf("tenant %d packet %d: match %d, want %d", tid, i, m, want)
			}
		}
		return l
	}
	serve(1, 1)
	lb := serve(2, 2)
	a.gen.Store(11)
	serve(1, 11)
	_, missesB, _ := lb.cache.Stats()
	serve(2, 2)
	if _, m, _ := lb.cache.Stats(); m != missesB {
		t.Errorf("tenant 2 missed %d times after tenant 1's generation change", m-missesB)
	}
}

// genLane is a TenantLane over a genClassifier that keeps its Live
// visible, so the lane's cache pins its generation per batch.
type genLane struct{ *genClassifier }

func (genLane) ShedOnOverload() bool { return false }

// TestTenantLanesBoundWithoutCache: with FlowCacheFlows = 0 the lane table
// obeys the same bound — ten times DefaultTenantPartitions tenants leave
// at most DefaultTenantPartitions lanes resident — and a reclaimed lane
// without a cache records no tenant-evicted event.
func TestTenantLanesBoundWithoutCache(t *testing.T) {
	s := newTenantShard(t, fixedTenants(10*DefaultTenantPartitions), 0)
	for tid := uint32(1); tid <= 10*DefaultTenantPartitions; tid++ {
		if _, err := s.tenants.laneFor(tid); err != nil {
			t.Fatalf("laneFor(%d): %v", tid, err)
		}
		if n := len(s.tenants.lanes); n > DefaultTenantPartitions {
			t.Fatalf("after tenant %d: %d lanes resident, bound %d", tid, n, DefaultTenantPartitions)
		}
	}
	if n := evictions(s); n != 0 {
		t.Errorf("cache-free lanes recorded %d tenant-evicted events", n)
	}
}

// TestRunTenantsFlowCacheCapacityError: an out-of-range FlowCacheFlows
// fails RunTenants with a wrapped *flowcache.CapacityError before any
// goroutine starts, though tenant lanes build their caches only once
// serving — as TestFlowCacheCapacityErrorSurfaces holds for RunContext.
func TestRunTenantsFlowCacheCapacityError(t *testing.T) {
	_, _, headers := fixtures(t, 64)
	over := int(flowcache.MaxCapacity)
	over++ // at runtime, so the constant expression cannot overflow
	if over < 0 {
		t.Skip("int cannot express a capacity beyond MaxCapacity on this platform")
	}
	base := runtime.NumGoroutine()
	emitted := 0
	_, err := RunTenants(context.Background(), fixedTenants(2), Config{Shards: 2, FlowCacheFlows: over},
		tenantStream(headers, []uint32{1, 2}), func(TenantResult) { emitted++ })
	var ce *flowcache.CapacityError
	if !errors.As(err, &ce) || ce.Capacity != over {
		t.Fatalf("err = %v, want a wrapped *flowcache.CapacityError for %d", err, over)
	}
	if emitted != 0 {
		t.Errorf("emit called %d times on a run that never started serving", emitted)
	}
	waitNoLeaks(t, base)
}

// sliceLane is a TenantLane whose value cannot be compared: it holds a
// slice, so == on two of them panics.
type sliceLane struct {
	Classifier
	tags []int
}

func (sliceLane) ShedOnOverload() bool { return false }

// wrapLane has a comparable type, but compares by comparing the value in
// its interface field — here a sliceLane, so == on two of them panics too.
type wrapLane struct{ TenantLane }

// TestTenantLaneUncomparableRefused: a resolver handing out lanes that
// cannot be compared must not take the process down — rebind detection
// compares lanes, and a panic there is outside every containment — but
// refuse the tenant's packets as ErrLaneUncomparable (a shed), with the
// accounting identity intact and the comparable neighbour unharmed.
func TestTenantLaneUncomparableRefused(t *testing.T) {
	_, tree, headers := fixtures(t, 6000)
	bad := sliceLane{Classifier: tree, tags: []int{1}}
	res := mapResolver{1: bad, 2: &stubLane{Classifier: tree}, 3: wrapLane{bad}}
	pkts := tenantStream(headers, []uint32{1, 2, 3})
	for _, shards := range []int{1, 3} {
		refused := map[uint32]uint64{}
		ts, err := RunTenants(context.Background(), res, Config{Shards: shards, PreserveOrder: true}, pkts,
			func(r TenantResult) {
				switch {
				case r.Tenant == 2 && r.Err != nil:
					t.Fatalf("shards=%d seq %d: comparable tenant failed: %v", shards, r.Seq, r.Err)
				case r.Tenant != 2 && !errors.Is(r.Err, ErrLaneUncomparable):
					t.Fatalf("shards=%d seq %d: tenant %d err = %v, want ErrLaneUncomparable", shards, r.Seq, r.Tenant, r.Err)
				case r.Tenant != 2:
					refused[r.Tenant]++
				}
			})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkTenantIdentity(t, ts, pkts)
		for _, tid := range []uint32{1, 3} {
			tc := ts.Tenants[tid]
			if tc.Shed != tc.Offered || refused[tid] != tc.Offered {
				t.Errorf("shards=%d tenant %d: %+v, %d refusals emitted; want everything shed", shards, tid, *tc, refused[tid])
			}
		}
		if ok := ts.Tenants[2]; ok.Classified != ok.Offered {
			t.Errorf("shards=%d: comparable tenant disturbed: %+v", shards, ok)
		}
	}
}

// TestRunTenantsOneTenantMatchesRunContext: a run whose packets are all
// tenant 0 is the single-table run. The emitted (Seq, Match, Err) stream,
// the Stats counts and the shard every packet is reported on must be
// RunContext's, the shard being the single-table flow placement.
func TestRunTenantsOneTenantMatchesRunContext(t *testing.T) {
	_, tree, headers := fixtures(t, 4097) // 65 batches: no shard ring can fill, so nothing sheds
	pkts := tenantStream(headers, []uint32{0})
	type out struct {
		seq   uint64
		match int
		err   error
	}
	for _, shards := range []int{1, 3, 8} {
		for _, policy := range []OverloadPolicy{OverloadBlock, OverloadShed} {
			for _, ordered := range []bool{true, false} {
				name := fmt.Sprintf("shards=%d/%v/ordered=%v", shards, policy, ordered)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Shards: shards, Overload: policy, PreserveOrder: ordered}
					want := make([]out, 0, len(headers))
					st, err := RunContext(context.Background(), tree, cfg, headers, func(r Result) {
						want = append(want, out{r.Seq, r.Match, r.Err})
					})
					if err != nil {
						t.Fatal(err)
					}
					got := make([]out, 0, len(headers))
					res := mapResolver{0: asLane(tree, policy == OverloadShed)}
					ts, err := RunTenants(context.Background(), res, cfg, pkts, func(r TenantResult) {
						got = append(got, out{r.Seq, r.Match, r.Err})
						if place := int(uint64(flowHash(r.Header)) * uint64(shards) >> 32); r.Shard != place {
							t.Fatalf("seq %d reported on shard %d, single-table placement %d", r.Seq, r.Shard, place)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if !ordered {
						// Completion order is the scheduler's: compare by sequence number.
						for _, s := range [][]out{want, got} {
							sort.Slice(s, func(i, j int) bool { return s[i].seq < s[j].seq })
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("RunTenants emitted %d results, RunContext %d, and the streams differ", len(got), len(want))
					}
					g, w := ts.Stats, st
					if g.Packets != w.Packets || g.Shed != w.Shed || g.Canceled != w.Canceled || g.Panics != w.Panics || g.Shards != w.Shards {
						t.Errorf("stats: RunTenants %+v, RunContext %+v", g, w)
					}
					checkTenantIdentity(t, ts, pkts)
				})
			}
		}
	}
}
