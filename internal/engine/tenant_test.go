package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rules"
)

// stubLane is a TenantLane over any classifier. The embedded interface
// keeps the method set minimal, so the engine's dynamic BatchClassifier
// and generation detection see a bare per-packet classifier.
type stubLane struct {
	Classifier
	shed bool
}

func (s *stubLane) ShedOnOverload() bool { return s.shed }

// batchLane is stubLane over a batched classifier, so the engine takes
// the same batched path it takes for the bare classifier.
type batchLane struct {
	BatchClassifier
	shed bool
}

func (b *batchLane) ShedOnOverload() bool { return b.shed }

// asLane wraps cl as a TenantLane with the given overload policy, keeping
// its batched path when it has one.
func asLane(cl Classifier, shed bool) TenantLane {
	if bc, ok := cl.(BatchClassifier); ok {
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

// checkTenantIdentity asserts the accounting contract: for every tenant
// on every shard, offered == classified + shed + canceled + panicked;
// per-tenant totals are exactly the shard sums; and per-tenant offered
// matches an independent recount of the input stream.
func checkTenantIdentity(t *testing.T, ts TenantStats, pkts []TenantPacket, shards int) {
	t.Helper()
	offeredWant := map[uint32]uint64{}
	for _, p := range pkts {
		offeredWant[p.Tenant]++
	}
	for tid, bd := range ts.Tenants {
		var sum TenantCounts
		if len(bd.Shards) != shards {
			t.Fatalf("tenant %d: %d shard entries, want %d", tid, len(bd.Shards), shards)
		}
		for si, sc := range bd.Shards {
			if sc.Offered != sc.Classified+sc.Shed+sc.Canceled+sc.Panicked {
				t.Errorf("tenant %d shard %d: offered %d != %d classified + %d shed + %d canceled + %d panicked",
					tid, si, sc.Offered, sc.Classified, sc.Shed, sc.Canceled, sc.Panicked)
			}
			sum.add(sc)
		}
		if bd.Total != sum {
			t.Errorf("tenant %d: Total %+v is not the shard sum %+v", tid, bd.Total, sum)
		}
		if bd.Total.Offered != offeredWant[tid] {
			t.Errorf("tenant %d: offered %d, stream carried %d", tid, bd.Total.Offered, offeredWant[tid])
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
		checkTenantIdentity(t, ts, pkts, shards)
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
		checkTenantIdentity(t, ts, pkts, shards)

		victim, hostile := ts.Tenants[7], ts.Tenants[9]
		if victim.Total.Shed != 0 || victim.Total.Canceled != 0 {
			t.Errorf("shards=%d: blocking victim lost packets (%d shed, %d canceled)",
				shards, victim.Total.Shed, victim.Total.Canceled)
		}
		if victim.Total.Classified != victim.Total.Offered {
			t.Errorf("shards=%d: victim classified %d of %d offered",
				shards, victim.Total.Classified, victim.Total.Offered)
		}
		if hostile.Total.Shed == 0 {
			t.Errorf("shards=%d: hostile tenant shed nothing past a depth-1 queue", shards)
		}
		// Aggregate stats must agree with the per-tenant sums.
		var all TenantCounts
		for _, bd := range ts.Tenants {
			all.add(bd.Total)
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
	checkTenantIdentity(t, ts, pkts, 3)
	bd := ts.Tenants[666]
	if bd.Total.Shed != bd.Total.Offered || bd.Total.Classified != 0 {
		t.Errorf("unknown tenant: %+v, want everything shed", bd.Total)
	}
	if uint64(refused) != bd.Total.Offered {
		t.Errorf("emitted %d refusals, stats say %d offered", refused, bd.Total.Offered)
	}
	if known := ts.Tenants[1]; known.Total.Classified != known.Total.Offered {
		t.Errorf("known tenant disturbed by unknown neighbor: %+v", known.Total)
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
	checkTenantIdentity(t, ts, pkts, 3)
	var all TenantCounts
	for _, bd := range ts.Tenants {
		all.add(bd.Total)
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
	checkTenantIdentity(t, ts, pkts, 3)
	if ts.Tenants[1].Total.Panicked != 0 {
		t.Errorf("innocent tenant charged %d panics", ts.Tenants[1].Total.Panicked)
	}
	if got := ts.Tenants[2].Total.Panicked; got == 0 {
		t.Error("panicky tenant accounted no panics")
	} else if uint64(ts.Panics) != got {
		t.Errorf("Stats.Panics %d != tenant 2's %d", ts.Panics, got)
	}
}

// TestRunTenantsPartitionEviction: more tenants than resident flow-cache
// partitions per shard. Eviction and re-admission must never serve one
// tenant a neighbor's cached answer, and each reclaim must land a
// tenant-evicted event on the flight recorder.
func TestRunTenantsPartitionEviction(t *testing.T) {
	_, _, headers := fixtures(t, 8000)
	res := mapResolver{}
	tenants := make([]uint32, 6)
	for i := range tenants {
		tid := uint32(i + 1)
		tenants[i] = tid
		res[tid] = &stubLane{Classifier: faultinject.FixedClassifier{Match: int(tid)}}
	}
	m := NewMetrics(2)
	ring := obs.NewRing(256)
	m.SetEvents(ring)
	pkts := tenantStream(headers, tenants)
	// Six tenants rotating through two partitions never stay resident long
	// enough to hit; a two-tenant tail over a few flows does.
	for rep := 0; rep < 50; rep++ {
		pkts = append(pkts, tenantStream(headers[:32], tenants[:2])...)
	}
	ts, err := RunTenants(context.Background(), res,
		Config{Shards: 2, PreserveOrder: true, FlowCacheFlows: 64, TenantPartitions: 2, Metrics: m},
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
	checkTenantIdentity(t, ts, pkts, 2)
	evicted := 0
	for _, ev := range ring.Snapshot() {
		if ev.Kind == obs.EventTenantEvicted {
			evicted++
		}
	}
	if evicted == 0 {
		t.Error("6 tenants over 2 partitions per shard recorded no tenant-evicted events")
	}
	// Every classified packet went through some tenant's partition, so the
	// exported cache counters must account for all of them — including
	// the packets served by partitions that were reclaimed since.
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
// lane resolution, partition lookup, batched classification — must stay
// allocation-free once a tenant's lane is warm, exactly like the
// single-table sharded hot path.
func TestTenantSteadyStateDoesNotAllocate(t *testing.T) {
	_, tree, headers := fixtures(t, 64)
	s := newTenantShard(t, mapResolver{5: &stubLane{Classifier: tree}})
	j := (&batchPool{size: 64}).get()
	j.tenant = 5
	for i, h := range headers {
		j.seqs, j.hs = append(j.seqs, uint64(i)), append(j.hs, h)
	}

	l, err := s.tenants.laneFor(5)
	if err != nil {
		t.Fatalf("laneFor(5): %v", err)
	}
	l.classify(j, nil, nil) // warm lane and partition
	if n := testing.AllocsPerRun(100, func() {
		l, _ := s.tenants.laneFor(5)
		l.classify(j, nil, nil)
	}); n != 0 {
		t.Errorf("warm tenant batch path allocates %v/op, want 0", n)
	}
}

// TestTenantLaneRebind: when the resolver starts returning a different
// lane for a tenant (remove + re-add), the shard must rebuild its lane
// state and drop the stale flow-cache partition instead of serving the
// old table from cache.
func TestTenantLaneRebind(t *testing.T) {
	_, _, headers := fixtures(t, 64)
	res := mapResolver{5: &stubLane{Classifier: faultinject.FixedClassifier{Match: 1}}}
	s := newTenantShard(t, res)
	j := (&batchPool{size: 64}).get()
	j.tenant = 5
	for i, h := range headers {
		j.seqs, j.hs = append(j.seqs, uint64(i)), append(j.hs, h)
	}
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

// newTenantShard builds the one shard of a multi-tenant run over res, with
// 128-flow cache partitions, four resident at most.
func newTenantShard(t *testing.T, res TenantResolver) *shard {
	t.Helper()
	cfg := Config{Shards: 1, FlowCacheFlows: 128, TenantPartitions: 4}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	shards, err := makeShards(nil, res, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	return shards[0]
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
		checkTenantIdentity(t, ts, pkts, shards)
		for _, tid := range []uint32{1, 3} {
			bd := ts.Tenants[tid]
			if bd.Total.Shed != bd.Total.Offered || refused[tid] != bd.Total.Offered {
				t.Errorf("shards=%d tenant %d: %+v, %d refusals emitted; want everything shed", shards, tid, bd.Total, refused[tid])
			}
		}
		if ok := ts.Tenants[2].Total; ok.Classified != ok.Offered {
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
					checkTenantIdentity(t, ts, pkts, shards)
				})
			}
		}
	}
}
