package update

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/rulegen"
	"repro/internal/rules"
)

func denyHost(addr uint32) rules.Rule {
	return rules.Rule{
		SrcIP:   rules.Prefix{Addr: addr, Len: 32},
		SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange,
		Proto: rules.AnyProto, Action: rules.ActionDeny,
	}
}

func TestApplyDeltaServesImmediately(t *testing.T) {
	m, rs := newManager(t)
	genBefore := m.Generation()
	target := denyHost(0x0A0B0C0D)
	if err := m.ApplyDelta([]Op{InsertAt(0, target)}); err != nil {
		t.Fatal(err)
	}
	if m.Generation() != genBefore+1 {
		t.Errorf("generation = %d, want %d (delta publishes a generation)", m.Generation(), genBefore+1)
	}
	h := rules.Header{SrcIP: 0x0A0B0C0D, DstIP: 1, SrcPort: 5, DstPort: 6, Proto: 7}
	if got := m.Classify(h); got != 0 {
		t.Errorf("Classify = %d, want the delta-inserted rule 0", got)
	}
	checkAgainstSnapshot(t, m, headers(t, rs, 600))
	hh := m.Health()
	if hh.DeltaOps != 1 || hh.DeltaInserted != 1 || hh.DeltaApplies != 1 {
		t.Errorf("delta health: %+v", hh)
	}
	if hh.DeltaAgeSeconds < 0 {
		t.Errorf("DeltaAgeSeconds = %v", hh.DeltaAgeSeconds)
	}
}

func TestDeltaDeleteMasksTreeRule(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 800)
	// Delete the highest-priority rule through the delta layer: the tree
	// still contains it, but no lookup may ever serve it again.
	if err := m.ApplyDelta([]Op{DeleteAt(0)}); err != nil {
		t.Fatal(err)
	}
	snap, _ := m.Snapshot()
	if len(snap) != rs.Len()-1 {
		t.Fatalf("snapshot %d rules, want %d", len(snap), rs.Len()-1)
	}
	checkAgainstSnapshot(t, m, hs)
	if h := m.Health(); h.DeltaDead != 1 {
		t.Errorf("DeltaDead = %d, want 1", h.DeltaDead)
	}
}

// TestApplyDeltaMatchesApply feeds the identical randomized edit stream
// through the rebuild path and the delta path; the two managers must
// agree on every snapshot and every classification.
func TestApplyDeltaMatchesApply(t *testing.T) {
	mFull, rs := newManager(t)
	mDelta, _ := newManager(t)
	extra, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 30, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	hs := headers(t, rs, 500)
	rng := rand.New(rand.NewSource(778))
	n := rs.Len()
	for round := 0; round < 12; round++ {
		var ops []Op
		for k := 0; k < 1+rng.Intn(3); k++ {
			if n > 5 && rng.Intn(2) == 0 {
				ops = append(ops, DeleteAt(rng.Intn(n)))
				n--
			} else {
				ops = append(ops, InsertAt(rng.Intn(n+1), extra.Rules[rng.Intn(extra.Len())]))
				n++
			}
		}
		if err := mFull.Apply(ops); err != nil {
			t.Fatalf("round %d full: %v", round, err)
		}
		if err := mDelta.ApplyDelta(ops); err != nil {
			t.Fatalf("round %d delta: %v", round, err)
		}
		sf, _ := mFull.Snapshot()
		sd, _ := mDelta.Snapshot()
		if len(sf) != len(sd) {
			t.Fatalf("round %d: snapshots %d vs %d rules", round, len(sf), len(sd))
		}
		for i := range sf {
			if sf[i] != sd[i] {
				t.Fatalf("round %d: rule %d differs", round, i)
			}
		}
		for _, h := range hs {
			if a, b := mFull.Classify(h), mDelta.Classify(h); a != b {
				t.Fatalf("round %d: Classify(%v) full %d, delta %d", round, h, a, b)
			}
		}
	}
	if h := mDelta.Health(); h.DeltaOps == 0 {
		t.Error("delta manager absorbed nothing")
	}
}

func TestApplyDeltaBatchAtomic(t *testing.T) {
	m, _ := newManager(t)
	genBefore := m.Generation()
	snapBefore, _ := m.Snapshot()
	err := m.ApplyDelta([]Op{InsertAt(0, denyHost(1)), DeleteAt(10_000)})
	if err == nil {
		t.Fatal("invalid delta batch applied")
	}
	if m.Generation() != genBefore {
		t.Error("generation moved after failed delta batch")
	}
	if snap, _ := m.Snapshot(); len(snap) != len(snapBefore) {
		t.Error("rule list changed after failed delta batch")
	}
}

func TestCompactFoldsDelta(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 600)
	for i := 0; i < 5; i++ {
		if err := m.ApplyDelta([]Op{InsertAt(i, denyHost(uint32(0x14000000+i)))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ApplyDelta([]Op{DeleteAt(10)}); err != nil {
		t.Fatal(err)
	}
	snapBefore, _ := m.Snapshot()
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	h := m.Health()
	if h.Compactions != 1 || h.DeltaOps != 0 || h.DeltaInserted != 0 || h.DeltaDead != 0 {
		t.Errorf("post-compaction health: %+v", h)
	}
	snapAfter, _ := m.Snapshot()
	if len(snapAfter) != len(snapBefore) {
		t.Fatalf("compaction changed rule count: %d -> %d", len(snapBefore), len(snapAfter))
	}
	for i := range snapAfter {
		if snapAfter[i] != snapBefore[i] {
			t.Fatalf("compaction changed rule %d", i)
		}
	}
	checkAgainstSnapshot(t, m, hs)
	// Nothing to fold: Compact is a no-op, not an error.
	if err := m.Compact(); err != nil {
		t.Fatalf("idle Compact: %v", err)
	}
	if m.Health().Compactions != 1 {
		t.Error("idle Compact counted as a compaction")
	}
}

// gatedBuilder blocks inside the build until released, signalling entry.
type gatedBuilder struct {
	inner   BuilderCtx
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedBuilder) build(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.inner(ctx, rs)
}

func TestCompactionReplaysMidBuildEdits(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 600)
	if err := m.ApplyDelta([]Op{InsertAt(0, denyHost(0x15000001))}); err != nil {
		t.Fatal(err)
	}
	good := m.ladder[0].Build
	gb := &gatedBuilder{inner: good, entered: make(chan struct{}), release: make(chan struct{})}
	m.ladder[0].Build = gb.build
	errCh := make(chan error, 1)
	go func() { errCh <- m.Compact() }()
	<-gb.entered
	// Edits landing while the compactor builds must be journaled and
	// replayed onto the fresh tree — and they must serve immediately.
	if err := m.ApplyDelta([]Op{InsertAt(1, denyHost(0x15000002)), DeleteAt(5)}); err != nil {
		t.Fatal(err)
	}
	snapBefore, _ := m.Snapshot()
	close(gb.release)
	if err := <-errCh; err != nil {
		t.Fatalf("compaction with mid-build edits: %v", err)
	}
	m.ladder[0].Build = good
	h := m.Health()
	if h.Compactions != 1 || h.CompactionAborts != 0 {
		t.Errorf("health: %+v", h)
	}
	// The replayed delta holds exactly the mid-build ops.
	if h.DeltaOps != 2 {
		t.Errorf("DeltaOps = %d, want the 2 replayed ops", h.DeltaOps)
	}
	snapAfter, _ := m.Snapshot()
	if len(snapAfter) != len(snapBefore) {
		t.Fatalf("rule count %d -> %d across compaction publish", len(snapBefore), len(snapAfter))
	}
	for i := range snapAfter {
		if snapAfter[i] != snapBefore[i] {
			t.Fatalf("rule %d changed across compaction publish", i)
		}
	}
	checkAgainstSnapshot(t, m, hs)
}

// gatedClassifier delays its first Classify until released — it parks the
// compactor mid-shadow-validate, after the build succeeded but before the
// candidate could publish.
type gatedClassifier struct {
	inner   Classifier
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedClassifier) Classify(h rules.Header) int {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.inner.Classify(h)
}
func (g *gatedClassifier) MemoryBytes() int { return g.inner.MemoryBytes() }

func TestRollbackDuringCompactionAborts(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 600)
	first := denyHost(0x16000001)
	if err := m.ApplyDelta([]Op{InsertAt(0, first)}); err != nil {
		t.Fatal(err)
	}
	good := m.ladder[0].Build
	gc := &gatedClassifier{entered: make(chan struct{}), release: make(chan struct{})}
	m.ladder[0].Build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
		cl, err := good(ctx, rs)
		if err != nil {
			return nil, err
		}
		gc.inner = cl
		return gc, nil
	}
	errCh := make(chan error, 1)
	go func() { errCh <- m.Compact() }()
	<-gc.entered // compactor is mid-shadow-validate

	// An edit lands, then the operator rolls it back — all while the
	// compactor validates a candidate built from a base that no longer
	// matches the live state.
	if err := m.ApplyDelta([]Op{InsertAt(1, denyHost(0x16000002))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	close(gc.release)
	if err := <-errCh; !errors.Is(err, ErrCompactionAborted) {
		t.Fatalf("compaction err = %v, want ErrCompactionAborted", err)
	}
	m.ladder[0].Build = good

	h := m.Health()
	if h.CompactionAborts != 1 || h.Compactions != 0 || h.Compacting {
		t.Errorf("health after aborted compaction: %+v", h)
	}
	// Rollback restored the pre-edit state: old tree + the first delta,
	// with the second insert gone and nothing double-applied.
	snap, _ := m.Snapshot()
	if len(snap) != rs.Len()+1 {
		t.Fatalf("snapshot %d rules, want %d", len(snap), rs.Len()+1)
	}
	if snap[0] != first {
		t.Error("rollback lost the first delta insert")
	}
	checkAgainstSnapshot(t, m, hs)

	// A fresh compaction over the restored state folds cleanly — the
	// aborted one left no residue.
	if err := m.Compact(); err != nil {
		t.Fatalf("compaction after abort: %v", err)
	}
	h = m.Health()
	if h.Compactions != 1 || h.DeltaOps != 0 {
		t.Errorf("health after clean compaction: %+v", h)
	}
	snap2, _ := m.Snapshot()
	if len(snap2) != len(snap) {
		t.Fatalf("clean compaction changed rule count: %d -> %d", len(snap), len(snap2))
	}
	for i := range snap2 {
		if snap2[i] != snap[i] {
			t.Fatalf("clean compaction changed rule %d", i)
		}
	}
	checkAgainstSnapshot(t, m, hs)
}

func TestAutoCompactionTriggers(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 40, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerConfig(rs, expcutsBuilder, Config{CompactThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.ApplyDelta([]Op{InsertAt(0, denyHost(uint32(0x17000000+i)))}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Quiesce(10 * time.Second) {
		t.Fatal("manager did not quiesce")
	}
	h := m.Health()
	if h.Compactions == 0 {
		t.Fatalf("auto-compaction never ran: %+v", h)
	}
	if h.DeltaOps >= 3 {
		t.Errorf("DeltaOps = %d after auto-compaction", h.DeltaOps)
	}
	checkAgainstSnapshot(t, m, headers(t, rs, 400))
}

// Health reports the same footprint as Manager.MemoryBytes: the tree plus
// the delta layer's side table while a delta is live, and the fresh tree
// alone once a compaction folds it.
func TestHealthMemoryIncludesDelta(t *testing.T) {
	m, _ := newManager(t)
	tree := m.MemoryBytes()
	if err := m.ApplyDelta([]Op{InsertAt(0, denyHost(0x0A0B0C0D))}); err != nil {
		t.Fatal(err)
	}
	withDelta := m.MemoryBytes()
	if withDelta <= tree {
		t.Fatalf("MemoryBytes = %d with a live delta, want more than the tree's %d", withDelta, tree)
	}
	if h := m.Health(); h.MemoryBytes != withDelta {
		t.Errorf("Health.MemoryBytes = %d with a live delta, Manager.MemoryBytes = %d", h.MemoryBytes, withDelta)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.DeltaOps != 0 || h.MemoryBytes != m.MemoryBytes() {
		t.Errorf("after compaction: Health.MemoryBytes = %d (DeltaOps %d), Manager.MemoryBytes = %d",
			h.MemoryBytes, h.DeltaOps, m.MemoryBytes())
	}
}

func TestClassifyBatchZeroAllocsWithDelta(t *testing.T) {
	m, rs := newManager(t)
	// Delta with inserts and deletes active — the hot path must still be
	// allocation-free end to end (tree lookup + delta resolve).
	if err := m.ApplyDelta([]Op{
		InsertAt(0, denyHost(0x18000001)),
		InsertAt(3, denyHost(0x18000002)),
		DeleteAt(7),
		DeleteAt(12),
	}); err != nil {
		t.Fatal(err)
	}
	hs := headers(t, rs, 256)
	out := make([]int, len(hs))
	m.ClassifyBatch(hs, out) // warm scratch
	allocs := testing.AllocsPerRun(50, func() {
		m.ClassifyBatch(hs, out)
	})
	if allocs != 0 {
		t.Errorf("ClassifyBatch with delta allocates %.1f/op, want 0", allocs)
	}
	checkAgainstSnapshot(t, m, hs)
}

// TestConcurrentReadersDuringDeltaChurn hammers Classify and
// ClassifyBatch from reader goroutines while a writer drives delta
// applies and compactions. Run with -race; every settled read must agree
// with the generation oracle.
func TestConcurrentReadersDuringDeltaChurn(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 1000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, 32)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := hs[i%len(hs)]
				i++
				snapBefore, genBefore := m.Snapshot()
				got := m.Classify(h)
				_, genAfter := m.Snapshot()
				if genBefore == genAfter {
					if want := rules.NewRuleSet("s", snapBefore).Match(h); got != want {
						t.Errorf("racing Classify = %d, generation oracle %d", got, want)
						return
					}
				}
				lo := i % (len(hs) - 32)
				m.ClassifyBatch(hs[lo:lo+32], out)
			}
		}()
	}
	for i := 0; i < 40; i++ {
		var op Op
		if i%3 == 2 {
			op = DeleteAt(i % 20)
		} else {
			op = InsertAt(i%10, denyHost(uint32(0x19000000+i)))
		}
		if err := m.ApplyDelta([]Op{op}); err != nil {
			t.Errorf("delta %d: %v", i, err)
		}
		if i%13 == 12 {
			if err := m.Compact(); err != nil && !errors.Is(err, ErrCompactionConflict) {
				t.Errorf("compact at %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkAgainstSnapshot(t, m, hs[:300])
}
