package main

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

func TestSelfTimeOverlappingChildrenOnTwoShards(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "engine.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "classify", Start: 10, End: 50},  // shard 0
		{ID: 3, Parent: 1, Name: "classify", Start: 30, End: 70},  // shard 1, overlapping
		{ID: 4, Parent: 1, Name: "classify", Start: 90, End: 150}, // runs past its parent: clipped
	}
	got := selfTimes(spans)
	if run := got["engine.run"]; run.total != 100 || run.self != 100-(60+10) {
		t.Errorf("engine.run: total %d self %d, want total 100 self 30", run.total, run.self)
	}
	if c := got["classify"]; c.count != 3 || c.total != 40+40+60 || c.self != c.total {
		t.Errorf("classify: %+v, want 3 leaf spans whose self time is their total", c)
	}
}

func TestSelfTimeEmptyParent(t *testing.T) {
	got := selfTimes([]span{{ID: 7, Name: "update.compact", Start: 5, End: 25}})
	if c := got["update.compact"]; c.self != 20 || c.total != 20 || c.count != 1 {
		t.Errorf("a span without children must be all self time, got %+v", c)
	}
}

func TestSpanWriterRoundTrip(t *testing.T) {
	want := []span{
		{ID: 1, Name: "engine.run", Start: 0, End: 100},
		{ID: rttSpanBase + 9, Name: "rtt", Start: 3, End: 1 << 40},
		{ID: 2, Parent: 1, Name: `odd "name"\`, Start: 10, End: 50},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatalf("the trace file is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the spans:\n got %+v\nwant %+v", got, want)
	}
	buf.Reset()
	if err := writeSpans(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := readSpans(&buf); err != nil || len(got) != 0 {
		t.Errorf("empty trace: got %v, %v", got, err)
	}
}

func TestRecorderConcurrentAndFull(t *testing.T) {
	const writers, each, capacity = 4, 1000, 2500
	rec := newRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				t0 := rec.now()
				rec.leaf(0, "x", t0, rec.now())
			}
		}()
	}
	wg.Wait()
	if n := len(rec.recorded()); n != capacity {
		t.Errorf("recorded %d spans, want the capacity %d", n, capacity)
	}
	if d := rec.dropped.Load(); d != writers*each-capacity {
		t.Errorf("dropped %d spans, want %d", d, writers*each-capacity)
	}
	ids := make(map[uint64]bool)
	for _, s := range rec.recorded() {
		if ids[s.ID] || s.End < s.Start {
			t.Fatalf("bad span %+v (duplicate id or negative duration)", s)
		}
		ids[s.ID] = true
	}
}
