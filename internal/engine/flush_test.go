package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rules"
)

// flushSource gives any Source a Flush method and checks the engine's
// flush contract from inside it. Flush and emit share plain fields, so a
// Flush off the emit goroutine is a data race under -race; inEmit catches
// a Flush made while an emit call is running; flushedAt records how many
// results had been emitted at the latest Flush.
type flushSource struct {
	Source
	t *testing.T

	inEmit    bool
	emitted   int
	flushes   int
	flushedAt int
}

func (s *flushSource) Flush() {
	if s.inEmit {
		s.t.Error("Flush ran inside an emit call")
	}
	s.flushes++
	s.flushedAt = s.emitted
}

// wrap returns emit instrumented for the contract checks.
func (s *flushSource) wrap(emit func(Result)) func(Result) {
	return func(r Result) {
		s.inEmit = true
		defer func() { s.inEmit = false }()
		s.emitted++
		emit(r)
	}
}

// checkFinalFlush fails unless a Flush ran after the last emitted result.
func (s *flushSource) checkFinalFlush(t *testing.T) {
	t.Helper()
	if s.flushes == 0 || s.flushedAt != s.emitted {
		t.Errorf("%d flushes, the latest after %d of %d results: a result stayed buffered",
			s.flushes, s.flushedAt, s.emitted)
	}
}

// lockstepSource is a trickleSource that, after its first pull, waits
// until every header it has returned has been emitted, the way a socket
// source blocks in its reads while its requests are answered. Its pulls
// are short, which is what lets it wait (see Source); and since nothing
// is in flight when it returns, each pull's last arrival finds the
// results channel empty.
type lockstepSource struct {
	trickleSource
	pending int
	emitted chan struct{} // one token per emitted result
}

func (s *lockstepSource) Next(hs []rules.Header) (int, bool) {
	for ; s.pending > 0; s.pending-- {
		<-s.emitted
	}
	n, ok := s.trickleSource.Next(hs)
	s.pending = n
	return n, ok
}

func TestStreamFlushOnEmitGoroutine(t *testing.T) {
	rs, tree, headers := fixtures(t, 5000)
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		// Each short pull is emitted before the next one, so Flush runs
		// many times mid-stream, not only at the end.
		lockstep := &lockstepSource{trickleSource: trickleSource{headers: headers, chunk: 7},
			emitted: make(chan struct{}, len(headers))}
		src := &flushSource{Source: lockstep, t: t}
		var next uint64
		st, err := RunStream(context.Background(), tree, Config{Shards: 3, PreserveOrder: true},
			src, src.wrap(func(r Result) {
				lockstep.emitted <- struct{}{}
				if r.Seq != next {
					t.Fatalf("procs=%d: seq %d emitted, want %d", procs, r.Seq, next)
				}
				next++
				if want := rs.Match(r.Header); r.Err != nil || r.Match != want {
					t.Fatalf("procs=%d: packet %d: match %d err %v, oracle %d", procs, r.Seq, r.Match, r.Err, want)
				}
			}))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if st.Packets != len(headers) || src.emitted != len(headers) {
			t.Errorf("procs=%d: %d classified, %d emitted, want %d", procs, st.Packets, src.emitted, len(headers))
		}
		if src.flushes < 2 {
			t.Errorf("procs=%d: %d flushes over a trickled stream", procs, src.flushes)
		}
		src.checkFinalFlush(t)
	}
}

func TestStreamFlushAfterCancellation(t *testing.T) {
	_, tree, headers := fixtures(t, 50000)
	slow := &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 100 * time.Microsecond}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	src := &flushSource{Source: &SliceSource{Headers: headers}, t: t}
	st, err := RunStream(ctx, slow, Config{Shards: 2, PreserveOrder: true}, src, src.wrap(func(Result) {}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if st.Canceled == 0 || src.emitted != st.Packets+st.Canceled {
		t.Fatalf("%d emitted, %d classified + %d canceled", src.emitted, st.Packets, st.Canceled)
	}
	src.checkFinalFlush(t)
}

// A Flush method anywhere but on a stream's Source is never called: the
// slice path has no source to buffer for.
type flushingClassifier struct {
	Classifier
	t *testing.T
}

func (c flushingClassifier) Flush() { c.t.Error("Flush called on a classifier") }

func TestStreamFlushNeverOnSlicePath(t *testing.T) {
	_, tree, headers := fixtures(t, 2000)
	cl := flushingClassifier{Classifier: tree, t: t}
	if _, err := RunContext(context.Background(), cl, Config{Shards: 2, PreserveOrder: true}, headers, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunStream(context.Background(), cl, Config{Shards: 2, PreserveOrder: true},
		&SliceSource{Headers: headers}, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if _, ok := Source(&SliceSource{}).(interface{ Flush() }); ok {
		t.Error("SliceSource has a Flush method")
	}
}

// Flushing changes nothing about what a stream emits.
func TestStreamFlushLeavesResultsUnchanged(t *testing.T) {
	_, tree, headers := fixtures(t, 5000)
	cfg := Config{Shards: 4, PreserveOrder: true}
	collect := func(src Source, emit func(func(Result)) func(Result)) []int {
		var got []int
		if _, err := RunStream(context.Background(), tree, cfg, src, emit(func(r Result) {
			got = append(got, r.Match)
		})); err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain := collect(&SliceSource{Headers: headers}, func(e func(Result)) func(Result) { return e })
	src := &flushSource{Source: &SliceSource{Headers: headers}, t: t}
	flushed := collect(src, src.wrap)
	if len(plain) != len(headers) || len(flushed) != len(plain) {
		t.Fatalf("%d plain results, %d flushed, want %d", len(plain), len(flushed), len(headers))
	}
	for i := range plain {
		if plain[i] != flushed[i] {
			t.Fatalf("packet %d: match %d with Flush, %d without", i, flushed[i], plain[i])
		}
	}
	src.checkFinalFlush(t)
}
