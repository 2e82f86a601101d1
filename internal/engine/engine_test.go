package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expcuts"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

func fixtures(t *testing.T, n int) (*rules.RuleSet, *expcuts.Tree, []rules.Header) {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 200, Seed: 401})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: n, Seed: 402, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return rs, tree, tr.Headers
}

func TestOrderingPreserved(t *testing.T) {
	rs, tree, headers := fixtures(t, 20000)
	var prev uint64
	first := true
	st, err := Run(tree, Config{Shards: 4, PreserveOrder: true}, headers, func(r Result) {
		if !first && r.Seq != prev+1 {
			t.Fatalf("out of order: %d after %d", r.Seq, prev)
		}
		first = false
		prev = r.Seq
		if want := rs.Match(r.Header); r.Match != want {
			t.Fatalf("result %d: match %d, oracle %d", r.Seq, r.Match, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(headers) {
		t.Errorf("packets = %d, want %d", st.Packets, len(headers))
	}
}

func TestUnorderedDeliversEverything(t *testing.T) {
	_, tree, headers := fixtures(t, 10000)
	seen := make([]bool, len(headers))
	st, err := Run(tree, Config{Shards: 4, PreserveOrder: false}, headers, func(r Result) {
		if seen[r.Seq] {
			t.Fatalf("duplicate result %d", r.Seq)
		}
		seen[r.Seq] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(headers) {
		t.Errorf("packets = %d", st.Packets)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("result %d never emitted", i)
		}
	}
}

// slowEveryN delays every Nth packet, forcing later packets to finish
// first and exercising the reorder buffer.
type slowEveryN struct {
	inner Classifier
	n     uint64
	count atomic.Uint64
}

func (s *slowEveryN) Classify(h rules.Header) int {
	if s.count.Add(1)%s.n == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return s.inner.Classify(h)
}

func TestReorderBufferAbsorbsSkew(t *testing.T) {
	rs, tree, headers := fixtures(t, 3000)
	slow := &slowEveryN{inner: tree, n: 50}
	var prev uint64
	first := true
	st, err := Run(slow, Config{Shards: 4, PreserveOrder: true}, headers, func(r Result) {
		if !first && r.Seq != prev+1 {
			t.Fatalf("out of order: %d after %d", r.Seq, prev)
		}
		first = false
		prev = r.Seq
		if want := rs.Match(r.Header); r.Match != want {
			t.Fatalf("result %d wrong", r.Seq)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(headers) {
		t.Errorf("packets = %d", st.Packets)
	}
	// With 4 shards and induced skew the reorder stage must actually
	// have held something back.
	if st.MaxReorder < 2 {
		t.Logf("note: MaxReorder = %d (scheduling-dependent; not failing)", st.MaxReorder)
	}
}

func TestSingleWorkerIsOrderedByConstruction(t *testing.T) {
	_, tree, headers := fixtures(t, 2000)
	st, err := Run(tree, Config{Shards: 1, PreserveOrder: true}, headers, func(Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxReorder != 0 {
		t.Errorf("a single shard should not need reordering, MaxReorder = %d", st.MaxReorder)
	}
}

func TestConfigValidation(t *testing.T) {
	_, tree, headers := fixtures(t, 10)
	if _, err := Run(tree, Config{Shards: -2}, headers, func(Result) {}); err == nil {
		t.Error("negative shards should fail")
	}
	if _, err := Run(tree, Config{QueueDepth: -1}, headers, func(Result) {}); err == nil {
		t.Error("negative queue depth should fail")
	}
}

func TestEmptyInput(t *testing.T) {
	_, tree, _ := fixtures(t, 10)
	st, err := Run(tree, Config{}, nil, func(Result) {
		t.Fatal("emit called for empty input")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 0 {
		t.Errorf("packets = %d", st.Packets)
	}
}
