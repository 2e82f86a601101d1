package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/rules"
)

// The model: sequence number s carries header modelHeader(s) and, when its
// batch was classified, match modelMatch(s). Every batch a test delivers is
// filled from these, so whatever the sequencer emits can be checked against
// s alone.
func modelHeader(s uint64) rules.Header {
	return rules.Header{SrcIP: uint32(s * 2654435761), DstIP: uint32(s >> 3), SrcPort: uint16(s), DstPort: uint16(s * 7), Proto: uint8(s % 251)}
}

func modelMatch(s uint64) int { return int(s % 97) }

// Batch outcomes the model distinguishes.
const (
	kindClassified = iota // every packet answered
	kindShed              // batch-level ErrShed
	kindCanceled          // batch-level context error
	kindPanicked          // per-packet errs: odd indices carry a *PanicError
	kinds
)

var errModelCanceled = errors.New("model: canceled")

// seqHarness drives one sequencer and checks every emission and every
// recycle against the model.
type seqHarness struct {
	t    testing.TB
	q    *sequencer
	st   Stats
	pool *batchPool

	emitted uint64 // results seen; in ordered mode also the next expected seq
	// want holds the expected error of every delivered, not yet emitted seq
	// (nil for a classified packet); emit deletes, so a second emission of a
	// seq, or one never delivered, finds no entry.
	want map[uint64]error
	// out maps every delivered, not yet recycled batch to its seqs.
	out      map[*batch][]uint64
	recycled int
	tally    TenantCounts
}

func newSeqHarness(t testing.TB, batchSize int, ordered bool) *seqHarness {
	h := &seqHarness{t: t, pool: &batchPool{size: batchSize},
		want: make(map[uint64]error), out: make(map[*batch][]uint64)}
	cfg := &Config{BatchSize: batchSize, PreserveOrder: ordered}
	h.q = newSequencer(cfg, &h.st, h.pool, func(r Result) {
		wantErr, ok := h.want[r.Seq]
		if !ok {
			t.Fatalf("seq %d emitted twice or never delivered", r.Seq)
		}
		delete(h.want, r.Seq)
		if ordered && r.Seq != h.emitted {
			t.Fatalf("emitted seq %d, want %d", r.Seq, h.emitted)
		}
		h.emitted++
		wantMatch := modelMatch(r.Seq)
		if wantErr != nil {
			wantMatch = -1
		}
		if r.Header != modelHeader(r.Seq) || r.Match != wantMatch || r.Err != wantErr {
			t.Fatalf("seq %d emitted as (%v, %d, %v), want (%v, %d, %v)",
				r.Seq, r.Header, r.Match, r.Err, modelHeader(r.Seq), wantMatch, wantErr)
		}
	})
	return h
}

// deliver fills a batch from the pool with seqs under the given outcome,
// hands it to the sequencer, and audits what came back to the pool.
func (h *seqHarness) deliver(kind int, seqs ...uint64) {
	b := h.pool.get()
	if len(b.seqs) != 0 || len(b.hs) != 0 || b.err != nil || b.errs != nil {
		h.t.Fatalf("pool handed out a dirty batch: %d seqs, %d headers, err %v, errs %v",
			len(b.seqs), len(b.hs), b.err, b.errs)
	}
	switch kind {
	case kindShed:
		b.err = ErrShed
	case kindCanceled:
		b.err = errModelCanceled
	case kindPanicked:
		b.errs = make([]error, len(seqs))
	}
	for i, s := range seqs {
		b.seqs, b.hs = append(b.seqs, s), append(b.hs, modelHeader(s))
		b.matches[i] = modelMatch(s)
		err := b.err
		if kind == kindPanicked && i%2 == 1 {
			err = &PanicError{Value: s}
			b.errs[i], b.matches[i] = err, -1
		}
		if _, dup := h.want[s]; dup {
			h.t.Fatalf("test bug: seq %d delivered twice", s)
		}
		h.want[s] = err
		switch {
		case err == nil:
			h.tally.Classified++
		case kind == kindShed:
			h.tally.Shed++
		case kind == kindCanceled:
			h.tally.Canceled++
		default:
			h.tally.Panicked++
		}
	}
	h.out[b] = append([]uint64(nil), seqs...)
	shelved := len(h.pool.free)
	h.q.accept(b)
	for _, r := range h.pool.free[shelved:] {
		rs, ok := h.out[r]
		if !ok {
			h.t.Fatalf("batch recycled twice (or never delivered)")
		}
		delete(h.out, r)
		h.recycled++
		for _, s := range rs {
			if _, pending := h.want[s]; pending {
				h.t.Fatalf("batch recycled with seq %d not yet emitted", s)
			}
		}
	}
}

// finish checks the end state: everything emitted, every batch recycled
// exactly once, nothing held, Stats equal to the model's tally.
func (h *seqHarness) finish(delivered int) {
	if err := h.q.finish(); err != nil {
		h.t.Fatal(err)
	}
	if len(h.want) != 0 || h.q.held != 0 {
		h.t.Fatalf("%d seqs never emitted, held = %d", len(h.want), h.q.held)
	}
	if len(h.out) != 0 || h.recycled != delivered {
		h.t.Fatalf("%d batches never recycled; %d recycles for %d deliveries", len(h.out), h.recycled, delivered)
	}
	for _, b := range h.q.live {
		if b != nil {
			h.t.Fatal("a live slot still references a batch")
		}
	}
	got := TenantCounts{Classified: uint64(h.st.Packets), Shed: uint64(h.st.Shed),
		Canceled: uint64(h.st.Canceled), Panicked: uint64(h.st.Panics)}
	if got != h.tally {
		h.t.Fatalf("Stats tally %+v, model %+v", got, h.tally)
	}
}

// runSequencerModel interprets ops as a generated scenario. The sequence
// space is cut into batches lane by lane: each op byte either appends the
// next sequence numbers to one lane's open batch (per-lane ascending, the
// lanes' ranges interleaving like two tenants' batches on one shard; sizes
// 1…batchSize, odd tails when a lane is closed early) or delivers one
// closed batch — the oldest, the newest (a shed batch overtaking the queued
// ones; far ahead, it forces the ring to grow in a window that has long
// since wrapped) or one in between (shards finishing out of order).
// What is left when ops run out is delivered newest first.
func runSequencerModel(t testing.TB, ops []byte) {
	if len(ops) < 2 {
		return
	}
	batchSize := 1 + int(ops[0])%8
	ordered := ops[1]&1 == 0
	const lanes = 3
	h := newSeqHarness(t, batchSize, ordered)
	type made struct {
		kind int
		seqs []uint64
	}
	var open [lanes][]uint64
	var ready []made
	var next uint64
	delivered := 0
	closeLane := func(l int, kind int) {
		if len(open[l]) > 0 {
			ready = append(ready, made{kind, open[l]})
			open[l] = nil
		}
	}
	deliver := func(i int) {
		m := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		h.deliver(m.kind, m.seqs...)
		delivered++
	}
	for _, op := range ops[2:] {
		arg := int(op >> 2)
		switch op & 3 {
		case 0: // deliver
			if len(ready) == 0 {
				continue
			}
			switch arg & 3 {
			case 0:
				deliver(0)
			case 1:
				deliver(len(ready) - 1)
			default:
				deliver((arg >> 2) % len(ready))
			}
		case 1: // close a lane early: an odd tail
			closeLane(arg%lanes, (arg/lanes)%kinds)
		default: // append 1…4 seqs to a lane
			l := arg % lanes
			for n := 1 + (arg/lanes)%4; n > 0; n-- {
				open[l] = append(open[l], next)
				next++
				if len(open[l]) == batchSize {
					closeLane(l, int(next)%kinds)
				}
			}
		}
	}
	for l := range open {
		closeLane(l, kindClassified)
	}
	for len(ready) > 0 {
		deliver(len(ready) - 1)
	}
	if h.emitted != next {
		t.Fatalf("emitted %d of %d", h.emitted, next)
	}
	h.finish(delivered)
}

// sequencerSeeds are the fuzz corpus tier-1 runs: hand-built shapes plus a
// few pseudo-random op strings.
func sequencerSeeds() [][]byte {
	app := func(lane, n int) byte { return byte((lane+3*(n-1))<<2 | 2) }
	cls := func(lane, kind int) byte { return byte((lane+3*kind)<<2 | 1) }
	const oldest, newest, middle = 0 << 2, 1 << 2, 7 << 2
	rep := func(n int, ops ...byte) []byte {
		var out []byte
		for ; n > 0; n-- {
			out = append(out, ops...)
		}
		return out
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	seeds := [][]byte{
		// batch size 4, three lanes' full batches delivered oldest first
		{3, 0, app(0, 4), app(1, 4), app(2, 4), oldest, oldest, oldest},
		// batch size 8, the same delivered newest first
		cat([]byte{7, 0}, rep(2, app(0, 4)), rep(2, app(1, 4)), rep(2, app(2, 4)), rep(3, newest)),
		// batch size 1
		{0, 0, app(0, 1), app(1, 1), app(2, 1), app(0, 1), newest, oldest, middle},
		// unordered
		{3, 1, app(0, 3), app(1, 2), cls(0, kindShed), app(2, 4), newest, oldest},
		// every outcome kind on an odd tail, lanes interleaved
		{5, 0, app(0, 3), app(1, 1), app(2, 3), app(1, 2), cls(0, kindShed), cls(1, kindCanceled),
			cls(2, kindPanicked), app(0, 2), cls(0, kindClassified), middle, newest, oldest},
		// batch size 4 (capacity 8): in-order traffic wraps the ring five
		// times, then six batches back up and the newest arrives first — a
		// far-ahead arrival growing a wrapped window
		cat([]byte{3, 0}, rep(10, app(0, 4), oldest), rep(6, app(0, 4)), []byte{newest}, rep(5, oldest)),
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 24; i++ {
		ops := make([]byte, 2+rng.Intn(600))
		rng.Read(ops)
		if i%3 == 0 { // mostly appends, rare deliveries: a deep backlog, far-ahead arrivals
			for k := 2; k < len(ops); k++ {
				if ops[k]&3 == 0 && rng.Intn(8) != 0 {
					ops[k] |= 2
				}
			}
		}
		seeds = append(seeds, ops)
	}
	return seeds
}

// TestSequencerModel is the third rung of the model-based tests (after the
// ExpCuts equivalence fuzz and the flow-cache model): the scenarios the
// sliding reorder ring was pinned with, as table rows against the handle
// ring, then the generated seeds, then the steady state's allocation count.
func TestSequencerModel(t *testing.T) {
	one := func(h *seqHarness, wantEmitted uint64, seqs ...uint64) {
		t.Helper()
		for _, s := range seqs {
			h.deliver(kindClassified, s)
		}
		if h.emitted != wantEmitted {
			t.Fatalf("after %v: emitted %d, want %d", seqs, h.emitted, wantEmitted)
		}
	}
	t.Run("in-order", func(t *testing.T) {
		h := newSeqHarness(t, 4, true)
		for s := uint64(0); s < 20; s++ {
			one(h, s+1, s)
		}
		if h.st.MaxReorder != 0 {
			t.Errorf("MaxReorder = %d for in-order arrivals, want 0", h.st.MaxReorder)
		}
		h.finish(20)
	})
	t.Run("out-of-order within window", func(t *testing.T) {
		h := newSeqHarness(t, 4, true) // capacity 8
		one(h, 0, 3, 1, 2)
		if h.q.held != 3 {
			t.Errorf("held = %d, want 3", h.q.held)
		}
		one(h, 4, 0)
		one(h, 4, 7, 6, 5)
		one(h, 8, 4)
		if len(h.q.ring) != 8 || h.st.MaxReorder != 3 {
			t.Errorf("capacity %d, MaxReorder %d; want 8 and 3", len(h.q.ring), h.st.MaxReorder)
		}
		h.finish(8)
	})
	t.Run("growth", func(t *testing.T) {
		// A result far beyond the window (the shed-under-order scenario):
		// the ring doubles until it fits, and occupants survive the re-index.
		h := newSeqHarness(t, 2, true) // capacity 4
		one(h, 0, 1, 2, 40)
		if len(h.q.ring) < 41 {
			t.Fatalf("capacity %d after seq 40 arrived", len(h.q.ring))
		}
		one(h, 3, 0)
		if h.q.held != 1 {
			t.Errorf("held = %d, want 1 (seq 40 still waiting)", h.q.held)
		}
		for s := uint64(3); s < 39; s++ {
			one(h, s+1, s)
		}
		one(h, 41, 39) // releases the waiting seq 40 too
		h.finish(41)
	})
	t.Run("grow at wrap boundary with slots in flight", func(t *testing.T) {
		// With next = 1020 and capacity 8 the live window [1020, 1028) wraps
		// the mask (1020&7 = 4, 1027&7 = 3): in-flight handles sit on both
		// sides of the array seam, and an arrival at exactly next+capacity
		// must grow precisely once and re-index every occupant to its
		// new-mask slot. An off-by-one in the trigger (> for >=) would
		// overwrite the handle at 1020&7 with seq 1028's; a re-index by old
		// position instead of seq&newMask would scatter the wrapped ones.
		h := newSeqHarness(t, 4, true) // capacity 8
		for s := uint64(0); s < 1020; s++ {
			one(h, s+1, s)
		}
		if h.q.next != 1020 || len(h.q.ring) != 8 {
			t.Fatalf("setup: next %d, capacity %d", h.q.next, len(h.q.ring))
		}
		one(h, 1020, 1021, 1023, 1027)
		one(h, 1020, 1028)
		if len(h.q.ring) != 16 || h.q.held != 4 {
			t.Fatalf("capacity %d, held %d after the boundary arrival; want exactly 16 and 4", len(h.q.ring), h.q.held)
		}
		for _, s := range []uint64{1021, 1023, 1027, 1028} {
			hd := h.q.ring[s&15]
			if hd == 0 || h.q.live[uint32(hd>>32)-1].seqs[uint32(hd)] != s {
				t.Fatalf("seq %d not at its new-mask slot after grow", s)
			}
		}
		one(h, 1020, 1022, 1024, 1025, 1026)
		one(h, 1029, 1020)
		h.finish(1029)
	})
	t.Run("random permutations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(500)
			h := newSeqHarness(t, 8, true)
			for _, s := range rng.Perm(n) {
				h.deliver(kindClassified, uint64(s))
			}
			if h.emitted != uint64(n) {
				t.Fatalf("trial %d: emitted %d of %d", trial, h.emitted, n)
			}
			h.finish(n)
		}
	})
	t.Run("seeds", func(t *testing.T) {
		for _, ops := range sequencerSeeds() {
			runSequencerModel(t, ops)
		}
	})
	t.Run("steady state does not allocate", func(t *testing.T) {
		// Rounds of 8 interleaved two-lane batches delivered newest first,
		// through one sequencer and one pool. The first rounds size the ring,
		// the slot table and the pool; after that a round allocates nothing.
		const batchSize, perRound = 16, 8
		var st Stats
		pool := &batchPool{size: batchSize}
		var emitted uint64
		q := newSequencer(&Config{BatchSize: batchSize, PreserveOrder: true}, &st, pool, func(r Result) {
			if r.Seq != emitted || r.Match != modelMatch(r.Seq) || r.Err != nil {
				t.Fatalf("emitted (%d, %d, %v) at position %d", r.Seq, r.Match, r.Err, emitted)
			}
			emitted++
		})
		var base uint64
		var round [perRound]*batch
		allocs := testing.AllocsPerRun(200, func() {
			for i := range round {
				round[i] = pool.get()
			}
			for s := base; s < base+perRound*batchSize; s++ {
				b := round[2*((s-base)/(2*batchSize))+s&1] // pairs of lanes share a range
				b.matches[len(b.seqs)] = modelMatch(s)
				b.seqs, b.hs = append(b.seqs, s), append(b.hs, modelHeader(s))
			}
			base += perRound * batchSize
			for i := perRound - 1; i >= 0; i-- {
				q.accept(round[i])
			}
		})
		if allocs != 0 {
			t.Errorf("warmed sequencer allocates %v per round, want 0", allocs)
		}
		if q.held != 0 || emitted != base {
			t.Errorf("held %d, emitted %d of %d", q.held, emitted, base)
		}
	})
}

func FuzzSequencerModel(f *testing.F) {
	for _, ops := range sequencerSeeds() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096] // the window a longer string reaches is no different
		}
		runSequencerModel(t, ops)
	})
}
