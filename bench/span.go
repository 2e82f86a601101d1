package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// span is one bracketed call into a layer. Times are nanoseconds since
// the recorder was created; parent 0 means a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder collects spans in a slice allocated before the run, so
// recording is two clock reads and one atomic add. Spans beyond the
// capacity are counted, not stored. Safe for concurrent use.
type recorder struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	ids     atomic.Uint64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// newID reserves an id for a span whose children are recorded before it
// closes.
func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(id, parent uint64, name string, start, end int64) {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

// leaf records a span that will have no children.
func (r *recorder) leaf(parent uint64, name string, start, end int64) {
	r.add(r.newID(), parent, name, start, end)
}

func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	count       int
	total, self int64
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval that its children cover; children
// that overlap each other (two shards classifying at once) are counted
// once, and a child is clipped to its parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.count++
		d := s.End - s.Start
		lt.total += d
		lt.self += d - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	reached := lo // everything before reached is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], reached), min(iv[1], hi)
		if b > a {
			sum += b - a
			reached = b
		}
	}
	return sum
}

// durations returns the durations in nanoseconds of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes spans as one JSON array, one span per line. It is
// hand-rolled because a traced run holds hundreds of thousands of spans.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	buf := make([]byte, 0, 128)
	bw.WriteString("[\n")
	for i, s := range spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendUint(buf, s.ID, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, s.Parent, 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"start":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, '}')
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

func readSpans(r io.Reader) ([]span, error) {
	var spans []span
	err := json.NewDecoder(r).Decode(&spans)
	return spans, err
}
