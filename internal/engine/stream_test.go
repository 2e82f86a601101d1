package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rules"
)

func TestStreamMatchesSlicePath(t *testing.T) {
	rs, tree, headers := fixtures(t, 20000)
	for _, shards := range []int{1, 4} {
		var prev uint64
		first := true
		st, err := RunStream(context.Background(), tree,
			Config{Shards: shards, PreserveOrder: true},
			&SliceSource{Headers: headers}, func(r Result) {
				if !first && r.Seq != prev+1 {
					t.Fatalf("shards=%d: out of order: %d after %d", shards, r.Seq, prev)
				}
				first = false
				prev = r.Seq
				if r.Err != nil {
					t.Fatalf("shards=%d: packet %d: %v", shards, r.Seq, r.Err)
				}
				if want := rs.Match(r.Header); r.Match != want {
					t.Fatalf("shards=%d: packet %d: match %d, oracle %d", shards, r.Seq, r.Match, want)
				}
			})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if st.Packets != len(headers) {
			t.Errorf("shards=%d: packets = %d, want %d", shards, st.Packets, len(headers))
		}
	}
}

// A one-shard stream is one serving goroutine: with ordering off it still
// emits in pull order and the sequencer holds nothing, even when some
// packets are slow enough that a second goroutine would overtake them.
func TestStreamSingleShardEmitsInPullOrder(t *testing.T) {
	rs, tree, headers := fixtures(t, 3000)
	for _, ordered := range []bool{false, true} {
		slow := &slowEveryN{inner: tree, n: 50}
		var next uint64
		st, err := RunStream(context.Background(), slow,
			Config{Shards: 1, PreserveOrder: ordered},
			&SliceSource{Headers: headers}, func(r Result) {
				if r.Seq != next {
					t.Fatalf("ordered=%v: seq %d emitted, want %d", ordered, r.Seq, next)
				}
				next++
				if want := rs.Match(r.Header); r.Err != nil || r.Match != want {
					t.Fatalf("ordered=%v: packet %d: match %d err %v, oracle %d", ordered, r.Seq, r.Match, r.Err, want)
				}
			})
		if err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if st.Packets != len(headers) || st.MaxReorder != 0 {
			t.Errorf("ordered=%v: packets %d of %d, MaxReorder %d, want 0", ordered, st.Packets, len(headers), st.MaxReorder)
		}
	}
}

// trickleSource hands out headers a few at a time with ok=true short
// fills — the shape of an idle socket — so it exercises the dispatcher's
// flush-on-short-fill path: packets must never sit in a half-built shard
// batch waiting for traffic that may not come.
type trickleSource struct {
	headers []rules.Header
	off     int
	chunk   int
}

func (s *trickleSource) Next(hs []rules.Header) (int, bool) {
	want := s.chunk
	if want > len(hs) {
		want = len(hs)
	}
	n := copy(hs[:want], s.headers[s.off:])
	s.off += n
	return n, s.off < len(s.headers)
}

func TestStreamShortFillsFlushPendingBatches(t *testing.T) {
	rs, tree, headers := fixtures(t, 5000)
	// chunk 3 against BatchSize 64 means nearly every pull is short: with
	// flushing broken this either deadlocks (nothing reaches BatchSize
	// before the source drains... the tail flush would save it) or at
	// minimum reorders; with it working every packet arrives in order.
	src := &trickleSource{headers: headers, chunk: 3}
	var next uint64
	st, err := RunStream(context.Background(), tree,
		Config{Shards: 4, PreserveOrder: true, BatchSize: 64},
		src, func(r Result) {
			if r.Seq != next {
				t.Fatalf("out of order: seq %d, want %d", r.Seq, next)
			}
			next++
			if want := rs.Match(r.Header); r.Match != want {
				t.Fatalf("packet %d: match %d, oracle %d", r.Seq, r.Match, want)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(headers) {
		t.Errorf("packets = %d, want %d", st.Packets, len(headers))
	}
}

// countingSource wraps SliceSource and counts how many headers it
// surrendered, so cancellation tests can balance the books against what
// the engine actually pulled.
type countingSource struct {
	inner   SliceSource
	yielded int
}

func (s *countingSource) Next(hs []rules.Header) (int, bool) {
	n, ok := s.inner.Next(hs)
	s.yielded += n
	return n, ok
}

func TestStreamCancellation(t *testing.T) {
	_, tree, headers := fixtures(t, 50000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 100 * time.Microsecond}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	src := &countingSource{inner: SliceSource{Headers: headers}}
	emitted := 0
	st, err := RunStream(ctx, slow, Config{Shards: 2, PreserveOrder: true}, src, func(r Result) {
		emitted++
		if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("packet %d: unexpected error %v", r.Seq, r.Err)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	waitNoLeaks(t, base)
	// Every pulled packet must be accounted for — classified or canceled,
	// never silently dropped. Unlike the slice path there is no
	// undispatched tail: unpulled headers stay in the source.
	if st.Packets+st.Canceled != src.yielded {
		t.Errorf("accounting: %d classified + %d canceled != %d pulled (stats %+v)",
			st.Packets, st.Canceled, src.yielded, st)
	}
	if emitted != src.yielded {
		t.Errorf("emit called %d times for %d pulled packets", emitted, src.yielded)
	}
	if src.yielded >= len(headers) {
		t.Error("a 20ms deadline against a 100µs/packet classifier drained the whole stream")
	}
}

func TestStreamCancelBeforeStart(t *testing.T) {
	_, tree, headers := fixtures(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	src := &countingSource{inner: SliceSource{Headers: headers}}
	st, err := RunStream(ctx, tree, Config{Shards: 2}, src, func(r Result) {
		t.Errorf("packet %d emitted on a dead context", r.Seq)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitNoLeaks(t, base)
	if src.yielded != 0 {
		t.Errorf("%d headers pulled on a dead context", src.yielded)
	}
	if st.Packets != 0 || st.Canceled != 0 {
		t.Errorf("stats nonzero on a dead context: %+v", st)
	}
}

func TestStreamOverloadShed(t *testing.T) {
	_, tree, headers := fixtures(t, 4000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 50 * time.Microsecond}
	base := runtime.NumGoroutine()
	shedSeen := 0
	st, err := RunStream(context.Background(), slow,
		Config{Shards: 1, QueueDepth: 1, PreserveOrder: true, Overload: OverloadShed},
		&SliceSource{Headers: headers}, func(r Result) {
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
		t.Fatal("overloaded stream shed nothing")
	}
	if st.Shed != shedSeen {
		t.Errorf("Stats.Shed = %d but %d ErrShed results emitted", st.Shed, shedSeen)
	}
	if st.Packets+st.Shed != len(headers) {
		t.Errorf("accounting: %d classified + %d shed != %d", st.Packets, st.Shed, len(headers))
	}
}

func TestStreamPanicAttribution(t *testing.T) {
	rs, tree, headers := fixtures(t, 5000)
	panicky := &faultinject.PanickyClassifier{Inner: tree, EveryN: 100}
	base := runtime.NumGoroutine()
	var good, bad int
	st, err := RunStream(context.Background(), panicky,
		Config{Shards: 4, PreserveOrder: true},
		&SliceSource{Headers: headers}, func(r Result) {
			if r.Err != nil {
				var pe *PanicError
				if !errors.As(r.Err, &pe) {
					t.Fatalf("packet %d: error %v is not a PanicError", r.Seq, r.Err)
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
		t.Fatal("a stream with contained panics must return an error")
	}
	waitNoLeaks(t, base)
	if bad == 0 || st.Panics != bad {
		t.Errorf("panics: emitted %d, stats %d (want >0 and equal)", bad, st.Panics)
	}
	if good+bad != len(headers) || st.Packets != good {
		t.Errorf("accounting: good %d + bad %d != %d packets (stats %+v)", good, bad, len(headers), st)
	}
}

func TestStreamNilSourceRejected(t *testing.T) {
	_, tree, _ := fixtures(t, 10)
	if _, err := RunStream(context.Background(), tree, Config{}, nil, func(Result) {}); err == nil {
		t.Error("nil source should fail validation")
	}
}

func TestStreamEmptySource(t *testing.T) {
	_, tree, _ := fixtures(t, 10)
	st, err := RunStream(context.Background(), tree, Config{Shards: 2, PreserveOrder: true},
		&SliceSource{}, func(r Result) {
			t.Errorf("packet %d emitted from an empty source", r.Seq)
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 0 {
		t.Errorf("packets = %d from an empty source", st.Packets)
	}
}

// oneShortSource is a live source at its most impatient: each pull
// returns one header fewer than it was offered (one when offered one),
// and the next pull waits until every header returned so far has been
// emitted. It records the length of every pull it was offered.
type oneShortSource struct {
	headers  []rules.Header
	off      int
	offered  []int
	emitted  atomic.Int64
	progress chan struct{} // one token after each emit
	stop     chan struct{} // closed to end a stalled run
}

func (s *oneShortSource) Next(hs []rules.Header) (int, bool) {
	s.offered = append(s.offered, len(hs))
	for s.emitted.Load() < int64(s.off) {
		select {
		case <-s.progress:
		case <-s.stop:
			return 0, false
		}
	}
	n := copy(hs[:max(1, len(hs)-1)], s.headers[s.off:])
	s.off += n
	return n, s.off < len(s.headers)
}

func (s *oneShortSource) emit(Result) {
	s.emitted.Add(1)
	select {
	case s.progress <- struct{}{}:
	default:
	}
}

// RunStream offers each pull one batch, and a pull shorter than that is a
// batch boundary: a source that waits on the results of its last short
// pull before it returns more never stalls the run, however many shards
// the pull's headers spread over. Shapes: one, two and four shards, each
// with batches of one, sixteen and sixty-four.
func TestStreamPullContract(t *testing.T) {
	_, tree, headers := fixtures(t, 1000)
	for _, shards := range []int{1, 2, 4} {
		for _, size := range []int{1, 16, 64} {
			cfg := Config{Shards: shards, BatchSize: size, PreserveOrder: true}
			t.Run(fmt.Sprintf("%dx%d", shards, size), func(t *testing.T) {
				src := &oneShortSource{headers: headers, progress: make(chan struct{}, 1), stop: make(chan struct{})}
				type outcome struct {
					st  Stats
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					st, err := RunStream(context.Background(), tree, cfg, src, src.emit)
					done <- outcome{st, err}
				}()
				var o outcome
				select {
				case o = <-done:
				case <-time.After(2 * time.Second):
					close(src.stop)
					<-done
					t.Fatalf("stalled after %d of %d headers were pulled", src.off, len(headers))
				}
				if o.err != nil || o.st.Packets != len(headers) {
					t.Fatalf("classified %d of %d: %v", o.st.Packets, len(headers), o.err)
				}
				for i, n := range src.offered {
					if n != cfg.BatchSize {
						t.Fatalf("pull %d offered %d slots, want %d", i, n, cfg.BatchSize)
					}
				}
			})
		}
	}
}

// A replay source fills every pull, so however many shards share it, its
// batches leave full: the mean batch the classifier sees is close to
// BatchSize, not the half of it a flush after every pull would leave at
// two shards.
func TestStreamReplayKeepsFullBatches(t *testing.T) {
	rs, tree, headers := fixtures(t, 1<<14)
	cb := &countingBatcher{inner: tree}
	st, err := RunStream(context.Background(), cb, Config{Shards: 2, BatchSize: 64, PreserveOrder: true},
		&SliceSource{Headers: headers}, func(r Result) {
			if want := rs.Match(r.Header); r.Err != nil || r.Match != want {
				t.Fatalf("packet %d: match %d err %v, oracle %d", r.Seq, r.Match, r.Err, want)
			}
		})
	if err != nil || st.Packets != len(headers) {
		t.Fatalf("classified %d of %d: %v", st.Packets, len(headers), err)
	}
	if mean := float64(cb.batched.Load()) / float64(cb.batchCalls.Load()); mean < 60 {
		t.Errorf("mean batch %.1f headers over %d batches, want >= 60", mean, cb.batchCalls.Load())
	}
}
