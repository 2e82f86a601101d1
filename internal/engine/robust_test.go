package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rules"
)

// waitNoLeaks fails the test if the goroutine count does not return to the
// baseline captured before the run — the engine must not leak goroutines no
// matter how a run ends.
func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d before run\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClassifierPanicContained(t *testing.T) {
	rs, tree, headers := fixtures(t, 5000)
	panicky := &faultinject.PanickyClassifier{Inner: tree, EveryN: 100}
	base := runtime.NumGoroutine()
	var good, bad int
	st, err := Run(panicky, Config{Shards: 4, PreserveOrder: true}, headers, func(r Result) {
		if r.Err != nil {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("packet %d: error %v is not a PanicError", r.Seq, r.Err)
			}
			if r.Match != -1 {
				t.Fatalf("packet %d: panicked but Match = %d", r.Seq, r.Match)
			}
			bad++
			return
		}
		if want := rs.Match(r.Header); r.Match != want {
			t.Fatalf("packet %d: match %d, oracle %d", r.Seq, r.Match, want)
		}
		good++
	})
	if err == nil {
		t.Fatal("a run with contained panics must return an error")
	}
	waitNoLeaks(t, base)
	if bad == 0 || st.Panics != bad {
		t.Errorf("panics: emitted %d, stats %d (want >0 and equal)", bad, st.Panics)
	}
	if good+bad != len(headers) || st.Packets != good {
		t.Errorf("accounting: good %d + bad %d != %d packets (stats %+v)", good, bad, len(headers), st)
	}
}

func TestPanicContainedPreservesOrder(t *testing.T) {
	_, tree, headers := fixtures(t, 3000)
	panicky := &faultinject.PanickyClassifier{Inner: tree, EveryN: 37}
	var next uint64
	_, err := Run(panicky, Config{Shards: 4, PreserveOrder: true}, headers, func(r Result) {
		if r.Seq != next {
			t.Fatalf("out of order: seq %d, want %d", r.Seq, next)
		}
		next++
	})
	if err == nil {
		t.Fatal("expected aggregate panic error")
	}
	if next != uint64(len(headers)) {
		t.Errorf("emitted %d of %d packets", next, len(headers))
	}
}

func TestEmitPanicDoesNotLeakWorkers(t *testing.T) {
	_, tree, headers := fixtures(t, 5000)
	base := runtime.NumGoroutine()
	calls := 0
	st, err := Run(tree, Config{Shards: 4, PreserveOrder: true}, headers, func(r Result) {
		calls++
		if calls == 100 {
			panic("emit exploded mid-drain")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "emit panicked") {
		t.Fatalf("err = %v, want emit panic error", err)
	}
	waitNoLeaks(t, base)
	if calls != 100 {
		t.Errorf("emit called %d times after panicking (must never be re-invoked)", calls)
	}
	if st.EmitPanics != 1 {
		t.Errorf("EmitPanics = %d, want 1", st.EmitPanics)
	}
}

func TestDeadlineExpiryCancelsRun(t *testing.T) {
	_, tree, headers := fixtures(t, 20000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 200 * time.Microsecond}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	emitted := 0
	st, err := RunContext(ctx, slow, Config{Shards: 4, PreserveOrder: true}, headers, func(r Result) {
		emitted++
		if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("packet %d: unexpected error %v", r.Seq, r.Err)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	waitNoLeaks(t, base)
	if st.Canceled == 0 {
		t.Error("deadline expired mid-run but nothing was counted canceled")
	}
	if st.Packets+st.Canceled != len(headers) {
		t.Errorf("accounting: %d classified + %d canceled != %d (stats %+v)",
			st.Packets, st.Canceled, len(headers), st)
	}
	if emitted > len(headers) {
		t.Errorf("emit called %d times for %d packets", emitted, len(headers))
	}
}

func TestCancelBeforeStart(t *testing.T) {
	_, tree, headers := fixtures(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	st, err := RunContext(ctx, tree, Config{Shards: 4}, headers, func(r Result) {
		if r.Err == nil {
			t.Errorf("packet %d classified after cancellation", r.Seq)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitNoLeaks(t, base)
	if st.Packets != 0 {
		t.Errorf("%d packets classified on a dead context", st.Packets)
	}
	if st.Canceled != len(headers) {
		t.Errorf("Canceled = %d, want %d", st.Canceled, len(headers))
	}
}

func TestOverloadShedDropsAndCounts(t *testing.T) {
	_, tree, headers := fixtures(t, 4000)
	// One shard that dawdles on every packet against a tiny ring forces
	// the dispatcher into its overload path.
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 50 * time.Microsecond}
	base := runtime.NumGoroutine()
	shedSeen := 0
	st, err := Run(slow, Config{Shards: 1, QueueDepth: 1, PreserveOrder: true, Overload: OverloadShed},
		headers, func(r Result) {
			if errors.Is(r.Err, ErrShed) {
				if r.Match != -1 {
					t.Fatalf("shed packet %d carries match %d", r.Seq, r.Match)
				}
				shedSeen++
			}
		})
	if err != nil {
		t.Fatalf("shedding is not an error-level event: %v", err)
	}
	waitNoLeaks(t, base)
	if st.Shed == 0 {
		t.Fatal("overloaded run shed nothing")
	}
	if st.Shed != shedSeen {
		t.Errorf("Stats.Shed = %d but %d ErrShed results emitted", st.Shed, shedSeen)
	}
	if st.Packets+st.Shed != len(headers) {
		t.Errorf("accounting: %d classified + %d shed != %d", st.Packets, st.Shed, len(headers))
	}
}

func TestOverloadBlockNeverSheds(t *testing.T) {
	_, tree, headers := fixtures(t, 3000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 10 * time.Microsecond}
	st, err := Run(slow, Config{Shards: 1, QueueDepth: 1, PreserveOrder: true}, headers, func(r Result) {
		if r.Err != nil {
			t.Fatalf("packet %d: unexpected error %v", r.Seq, r.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 0 || st.Packets != len(headers) {
		t.Errorf("block policy shed packets: %+v", st)
	}
}

func TestInvalidOverloadPolicy(t *testing.T) {
	_, tree, headers := fixtures(t, 10)
	if _, err := Run(tree, Config{Overload: OverloadPolicy(42)}, headers, func(Result) {}); err == nil {
		t.Error("bogus overload policy should fail validation")
	}
}

// sequentialPanicky panics on an exact arrival position — usable with one
// shard, where arrival order equals call order.
type sequentialPanicky struct {
	inner Classifier
	at    int
	calls int
}

func (s *sequentialPanicky) Classify(h rules.Header) int {
	s.calls++
	if s.calls == s.at {
		panic("boom at a fixed position")
	}
	return s.inner.Classify(h)
}

func TestSingleWorkerPanicIsDeterministic(t *testing.T) {
	_, tree, headers := fixtures(t, 100)
	cl := &sequentialPanicky{inner: tree, at: 42}
	st, err := Run(tree, Config{}, headers, func(Result) {})
	if err != nil || st.Panics != 0 {
		t.Fatalf("clean baseline failed: %v %+v", err, st)
	}
	var failedSeq uint64
	st, err = Run(cl, Config{Shards: 1, PreserveOrder: true}, headers, func(r Result) {
		if r.Err != nil {
			failedSeq = r.Seq
		}
	})
	if err == nil || st.Panics != 1 {
		t.Fatalf("err = %v, Panics = %d, want 1 contained panic", err, st.Panics)
	}
	if failedSeq != 41 {
		t.Errorf("panic landed on seq %d, want 41", failedSeq)
	}
}

// poisonClassifier is a BatchClassifier that panics on one chosen header.
// It identifies the batch object behind every call by the backing array of
// the headers it is handed, which is how the test below knows objects were
// reused without reaching into the pool.
type poisonClassifier struct {
	inner  BatchClassifier
	poison rules.Header

	mu        sync.Mutex
	calls     int
	sightings map[*rules.Header]int // per backing array: calls that handed it over
	after     map[*rules.Header]int // per array that once carried poison: calls since
}

func (p *poisonClassifier) Classify(h rules.Header) int {
	if h == p.poison {
		panic("poisoned header")
	}
	return p.inner.Classify(h)
}

func (p *poisonClassifier) ClassifyBatch(hs []rules.Header, out []int) {
	poisoned := false
	for _, h := range hs {
		poisoned = poisoned || h == p.poison
	}
	p.mu.Lock()
	p.calls++
	p.sightings[&hs[0]]++
	if _, was := p.after[&hs[0]]; was {
		p.after[&hs[0]]++
	} else if poisoned {
		p.after[&hs[0]] = 0
	}
	p.mu.Unlock()
	if poisoned {
		panic("poisoned batch")
	}
	p.inner.ClassifyBatch(hs, out)
}

type poisonLane struct{ *poisonClassifier }

func (poisonLane) ShedOnOverload() bool { return false }

// TestPanickedBatchRecyclesClean: results live in the batch that carried
// them, and batches are recycled, so a contained panic's per-packet errors
// must die with the trip through the pool. A classifier panics on one
// header planted every 997 packets; with 8-packet batches and shallow rings
// a run owns a few dozen batch objects and pushes thousands of batches
// through them, so every object is reused many times after it was poisoned.
// Exactly the planted packets carry a *PanicError, their batch neighbours
// carry their true matches, and nothing later inherits an error.
func TestPanickedBatchRecyclesClean(t *testing.T) {
	rs, tree, headers := fixtures(t, 40000)
	poison := rules.Header{SrcIP: 0xdeadbeef, DstIP: 0xfeedface, SrcPort: 4242, DstPort: 2424, Proto: 0xfd}
	planted := 0
	for i := 500; i < len(headers); i += 997 {
		headers[i] = poison
		planted++
	}
	check := func(t *testing.T, serve func(cl *poisonClassifier, cfg Config, emit func(Result)) (Stats, error)) {
		cl := &poisonClassifier{inner: tree, poison: poison,
			sightings: make(map[*rules.Header]int), after: make(map[*rules.Header]int)}
		var next uint64
		panicked := 0
		// Every lane is one serve goroutine and the rings are shallow, so
		// the count of batch objects in flight has a bound to assert
		// against.
		st, err := serve(cl, Config{BatchSize: 8, QueueDepth: 2, PreserveOrder: true}, func(r Result) {
			if r.Seq != next {
				t.Fatalf("seq %d emitted at position %d", r.Seq, next)
			}
			next++
			if r.Header != headers[r.Seq] {
				t.Fatalf("seq %d carries another packet's header", r.Seq)
			}
			var pe *PanicError
			switch {
			case r.Header == poison:
				if !errors.As(r.Err, &pe) || r.Match != -1 {
					t.Fatalf("planted seq %d emitted as (%d, %v), want a *PanicError", r.Seq, r.Match, r.Err)
				}
				panicked++
			case r.Err != nil:
				t.Fatalf("innocent seq %d inherited %v", r.Seq, r.Err)
			case r.Match != rs.Match(r.Header):
				t.Fatalf("seq %d: match %d, oracle %d", r.Seq, r.Match, rs.Match(r.Header))
			}
		})
		if err == nil {
			t.Fatal("a run with contained panics must return an error")
		}
		if int(next) != len(headers) || panicked != planted || st.Panics != planted || st.Packets != len(headers)-planted {
			t.Fatalf("emitted %d of %d, %d panicked of %d planted; stats %+v", next, len(headers), panicked, planted, st)
		}
		// Reuse actually happened: few objects, many trips, and poisoned
		// objects kept serving.
		if len(cl.sightings)*10 > cl.calls {
			t.Fatalf("%d batch objects for %d batches: not reused 10 times on average", len(cl.sightings), cl.calls)
		}
		most := 0
		for _, n := range cl.after {
			most = max(most, n)
		}
		if most < 10 {
			t.Fatalf("no poisoned batch object was reused 10 times (most: %d)", most)
		}
	}
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			check(t, func(cl *poisonClassifier, cfg Config, emit func(Result)) (Stats, error) {
				cfg.Shards = shards
				return Run(cl, cfg, headers, emit)
			})
		})
	}
	t.Run("tenants", func(t *testing.T) {
		check(t, func(cl *poisonClassifier, cfg Config, emit func(Result)) (Stats, error) {
			cfg.Shards = 2
			res := mapResolver{1: poisonLane{cl}, 2: poisonLane{cl}, 3: poisonLane{cl}}
			ts, err := RunTenants(context.Background(), res, cfg, tenantStream(headers, []uint32{1, 2, 3}),
				func(r TenantResult) { emit(r.Result) })
			checkTenantIdentity(t, ts, tenantStream(headers, []uint32{1, 2, 3}), cfg.Shards)
			return ts.Stats, err
		})
	})
}
