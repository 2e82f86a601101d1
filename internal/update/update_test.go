package update

import (
	"sync"
	"testing"

	"repro/internal/expcuts"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

func expcutsBuilder(rs *rules.RuleSet) (Classifier, error) {
	return expcuts.New(rs, expcuts.Config{})
}

func newManager(t *testing.T) (*Manager, *rules.RuleSet) {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 40, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(rs, expcutsBuilder)
	if err != nil {
		t.Fatal(err)
	}
	return m, rs
}

func checkAgainstSnapshot(t *testing.T, m *Manager, headers []rules.Header) {
	t.Helper()
	snap, _ := m.Snapshot()
	oracle := rules.NewRuleSet("snap", snap)
	for _, h := range headers {
		if got, want := m.Classify(h), oracle.Match(h); got != want {
			t.Fatalf("Classify(%v) = %d, snapshot oracle %d", h, got, want)
		}
	}
}

func headers(t *testing.T, rs *rules.RuleSet, n int) []rules.Header {
	t.Helper()
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: n, Seed: 502, MatchFraction: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Headers
}

func TestInitialGeneration(t *testing.T) {
	m, rs := newManager(t)
	if m.Generation() != 1 {
		t.Errorf("generation = %d, want 1", m.Generation())
	}
	checkAgainstSnapshot(t, m, headers(t, rs, 600))
	if m.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
}

func TestInsertTakesPriority(t *testing.T) {
	m, rs := newManager(t)
	// Insert a top-priority deny for a specific host.
	target := rules.Rule{
		SrcIP:   rules.Prefix{Addr: 0x0A0B0C0D, Len: 32},
		SrcPort: rules.FullPortRange,
		DstPort: rules.FullPortRange,
		Proto:   rules.AnyProto,
		Action:  rules.ActionDeny,
	}
	if err := m.Apply([]Op{InsertAt(0, target)}); err != nil {
		t.Fatal(err)
	}
	if m.Generation() != 2 {
		t.Errorf("generation = %d, want 2", m.Generation())
	}
	h := rules.Header{SrcIP: 0x0A0B0C0D, DstIP: 1, SrcPort: 5, DstPort: 6, Proto: 7}
	if got := m.Classify(h); got != 0 {
		t.Errorf("Classify = %d, want the inserted rule 0", got)
	}
	checkAgainstSnapshot(t, m, headers(t, rs, 600))
}

func TestDeleteShiftsPriorities(t *testing.T) {
	m, rs := newManager(t)
	before, _ := m.Snapshot()
	if err := m.Apply([]Op{DeleteAt(0)}); err != nil {
		t.Fatal(err)
	}
	after, _ := m.Snapshot()
	if len(after) != len(before)-1 {
		t.Fatalf("lengths: %d -> %d", len(before), len(after))
	}
	if after[0] != before[1] {
		t.Error("delete did not shift the list")
	}
	checkAgainstSnapshot(t, m, headers(t, rs, 600))
}

func TestBatchIsAtomic(t *testing.T) {
	m, _ := newManager(t)
	genBefore := m.Generation()
	snapBefore, _ := m.Snapshot()
	// Second op is invalid: the whole batch must roll back.
	err := m.Apply([]Op{
		InsertAt(0, rules.Rule{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto}),
		DeleteAt(10_000),
	})
	if err == nil {
		t.Fatal("invalid batch applied")
	}
	if m.Generation() != genBefore {
		t.Errorf("generation moved to %d after failed batch", m.Generation())
	}
	snapAfter, _ := m.Snapshot()
	if len(snapAfter) != len(snapBefore) {
		t.Error("rule list changed after failed batch")
	}
}

func TestCannotEmptyRuleSet(t *testing.T) {
	rs := rules.NewRuleSet("one", []rules.Rule{
		{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto},
	})
	m, err := NewManager(rs, expcutsBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply([]Op{DeleteAt(0)}); err == nil {
		t.Error("emptying the rule set should fail")
	}
}

func TestConcurrentReadersDuringUpdates(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 2000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Readers hammer Classify; each answer must be consistent with *some*
	// generation, which we verify by re-checking against the snapshot the
	// reader observes around the call.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
				snapAfter, genAfter := m.Snapshot()
				if genBefore != genAfter {
					continue // an update raced this lookup; skip the check
				}
				want := rules.NewRuleSet("s", snapBefore).Match(h)
				_ = snapAfter
				if got != want {
					t.Errorf("racing Classify(%v) = %d, generation oracle %d", h, got, want)
					return
				}
			}
		}()
	}
	// Writer applies updates.
	for i := 0; i < 6; i++ {
		r := rules.Rule{
			SrcIP:   rules.Prefix{Addr: uint32(i) << 24, Len: 8},
			SrcPort: rules.FullPortRange,
			DstPort: rules.FullPortRange,
			Proto:   rules.AnyProto,
			Action:  rules.ActionDeny,
		}
		if err := m.Apply([]Op{InsertAt(0, r)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m.Generation() != 7 {
		t.Errorf("generation = %d, want 7", m.Generation())
	}
}

func TestInsertPositionClamping(t *testing.T) {
	m, _ := newManager(t)
	r := rules.Rule{SrcPort: rules.FullPortRange, DstPort: rules.FullPortRange, Proto: rules.AnyProto}
	if err := m.Apply([]Op{InsertAt(-5, r)}); err != nil {
		t.Fatal(err)
	}
	snap, _ := m.Snapshot()
	if snap[0] != r {
		t.Error("negative position should clamp to 0")
	}
	if err := m.Apply([]Op{InsertAt(1<<30, r)}); err != nil {
		t.Fatal(err)
	}
	snap, _ = m.Snapshot()
	if snap[len(snap)-1] != r {
		t.Error("huge position should clamp to the end")
	}
}

// scalarOnly is a Classifier with no ClassifyBatch, forcing the manager's
// loop fallback.
type scalarOnly struct{ rs *rules.RuleSet }

func (s scalarOnly) Classify(h rules.Header) int { return s.rs.Match(h) }
func (s scalarOnly) MemoryBytes() int            { return 0 }

func TestManagerClassifyBatch(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 512)
	out := make([]int, 64)
	for lo := 0; lo < len(hs); lo += 64 {
		chunk := hs[lo : lo+64]
		m.ClassifyBatch(chunk, out)
		for k, h := range chunk {
			if want := m.Classify(h); out[k] != want {
				t.Fatalf("packet %d: batch %d, scalar %d", lo+k, out[k], want)
			}
		}
	}
}

func TestManagerClassifyBatchLoopFallback(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.Firewall, Size: 40, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(rs, func(rs *rules.RuleSet) (Classifier, error) {
		return scalarOnly{rs: rs}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := headers(t, rs, 128)
	out := make([]int, len(hs))
	m.ClassifyBatch(hs, out)
	for i, h := range hs {
		if want := rs.Match(h); out[i] != want {
			t.Fatalf("packet %d: batch %d, oracle %d", i, out[i], want)
		}
	}
}

// TestManagerBatchSeesOneGeneration: a batch classifies entirely against
// the generation loaded at its start — an Apply mid-batch must not split
// a batch across generations. Proven structurally (the manager does one
// live.Load per batch) and behaviorally here: concurrent Applies while
// batches run never produce a mix that disagrees with some single
// generation's snapshot.
func TestManagerBatchSeesOneGeneration(t *testing.T) {
	m, rs := newManager(t)
	hs := headers(t, rs, 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := rs.Rules[i%rs.Len()]
			if err := m.Apply([]Op{InsertAt(0, r)}); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	out := make([]int, len(hs))
	for round := 0; round < 50; round++ {
		gBefore := m.Generation()
		m.ClassifyBatch(hs, out)
		gAfter := m.Generation()
		if gBefore != gAfter {
			continue // a swap landed mid-batch; single-Load still applies but we can't name the generation
		}
		snap, _ := m.Snapshot()
		oracle := rules.NewRuleSet("snap", snap)
		for i, h := range hs {
			if want := oracle.Match(h); out[i] != want {
				t.Fatalf("round %d packet %d: batch %d, generation oracle %d", round, i, out[i], want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A NewManager manager is a one-rung ladder named after its classifier:
// it reports the classifier's name as the serving algorithm and as its
// one breaker's rung.
func TestNewManagerNamesItsRungAfterTheClassifier(t *testing.T) {
	m, _ := newManager(t)
	if algo, lvl := m.DescribeAlgorithm(); algo != "ExpCuts" || lvl != 0 {
		t.Fatalf("DescribeAlgorithm = %q/%d, want ExpCuts/0", algo, lvl)
	}
	if err := m.Apply([]Op{insertOp()}); err != nil {
		t.Fatal(err)
	}
	h := m.Health()
	if h.ActiveAlgorithm != "ExpCuts" || h.DegradationLevel != 0 {
		t.Fatalf("health = %q/%d, want ExpCuts/0", h.ActiveAlgorithm, h.DegradationLevel)
	}
	if len(h.Breakers) != 1 || h.Breakers[0].Rung != "ExpCuts" {
		t.Fatalf("breakers = %+v, want one rung named ExpCuts", h.Breakers)
	}
}
