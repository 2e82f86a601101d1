// Package flowcache puts an exact-match flow cache in front of a
// classifier: the first packet of a flow takes the full lookup, subsequent
// packets hit a bounded table keyed by the 5-tuple. This is the standard
// flow-level fast path on network processors (the paper's group explores
// it for deep inspection in the work cited as [15]); it composes with any
// classifier in this repository and never changes classification results —
// it only changes their cost.
//
// The table is set-associative: capacity/8 sets of 8 ways (a capacity
// below 8 is one set of capacity ways; 8 or more rounds down to a
// multiple of 8). A set is one word of eight 8-bit tags, 0 for an empty
// way, and one ghost word, beside eight 32-byte entries. A lookup hashes
// the packed key once, matches the tag word against the key's tag in one
// SWAR step and compares the full key only where a tag matched: one tag
// line and one entry line, no map, no recency list — the shape an ME gives
// flow state in local memory, the tag word being the CAM-style match in
// front of it.
//
// Replacement stays in the set. A missed flow whose way is still there
// (staled by an epoch advance) refreshes it; else it takes an empty way.
// A full set — every way taken, staled ones included — admits a flow only
// on its second miss: the ghost word holds the 16-bit fingerprints of the
// last four flows the set refused, oldest first, and a flow found there
// leaves it and evicts the way touched longest ago (staled ways are older
// than every live one); any other flow is pushed into the ghost and not
// cached. So a flow seen once evicts nothing (short of a fingerprint
// collision), and a scan of one-time flows leaves the resident set in
// place, while a cold cache fills exactly as plain LRU would. Len counts
// occupied ways, staled ones included.
//
// A slow path whose rule set changes underneath (a Versioned one, such as
// update.Manager) is pinned once per Classify or ClassifyBatch call,
// before the probe: if its generation moved since the last call the cache
// advances its own epoch, and the call's misses are answered by the
// pinned generation. So one call answers from one generation, hits and
// misses alike, and no verdict of an older generation is served again.
//
// All allocation happens in New and in ClassifyBatch's first misses. The
// cache is not safe for concurrent use; give each worker its own, as an
// ME implementation would.
package flowcache

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/rules"
)

const setWays = 8 // associativity: one tag byte per way

// entry is one way of one set: packed 5-tuple, cache clock at its last
// touch, match, and the epoch that was cached under. 32 bytes: two a line.
type entry struct {
	a, b  uint64
	age   uint64
	match int32
	epoch uint32
}

// setWords are one set's tag word (way w's tag is byte w, 0 = empty) and
// its ghost word (16-bit fingerprints of refused flows, newest in the low
// lane, 0 = none), side by side so a miss reads both in one line.
type setWords struct {
	tags, ghost uint64
}

// key is a packed 5-tuple and where it lives or would live: its set, its
// tag there (never 0), the hash bits of its ghost fingerprint and the way
// its probe found it in (any epoch; -1 if absent); idx is a ClassifyBatch
// miss's batch position.
type key struct {
	a, b uint64
	set  uint32
	idx  int32
	fp   uint16
	tag  uint8
	way  int8
}

// fingerprint is k's entry in a ghost word: never 0, the empty lane.
func (k *key) fingerprint() uint64 { return uint64(max(1, k.fp)) }

// Versioned is a slow path whose rule set changes under the cache, as
// update.Manager's does. Live returns the live generation, which must
// answer on its own for as long as the caller holds it, and its number,
// which must differ from every earlier generation's.
type Versioned interface {
	Live() (rules.BatchClassifier, uint64)
}

// Cache is a bounded set-associative flow cache over a classifier.
type Cache struct {
	slow      rules.Classifier
	batch     rules.BatchClassifier // slow, if it supports batching; else nil
	versioned Versioned             // slow, if it versions its rule set; else nil
	gen       uint64                // versioned's generation the live epoch caches

	sets    []setWords
	entries []entry // set s owns entries[s*setWays:], setWays of them or all
	used    int     // occupied ways over all sets
	clock   uint64  // bumped on every hit and insert: the recency stamp

	// epoch tags every entry; AdvanceEpoch bumps it, staling them all in O(1).
	epoch                 uint32
	hits, misses, refused uint64

	// Miss-forwarding scratch for ClassifyBatch, retained across calls so
	// the steady state allocates nothing.
	missHs   []rules.Header
	missKeys []key
	missOut  []int
}

// MaxCapacity is the largest capacity New accepts: the set index is a
// 32-bit multiply-shift, and this many flows is already 64 GB of entries.
const MaxCapacity = 1<<31 - 1

// CapacityError reports a cache capacity outside [1, MaxCapacity]. It is
// a typed error so construction sites (the engine's per-shard cache
// setup) can tell a misconfigured capacity from an environmental failure.
type CapacityError struct {
	// Capacity is the rejected value.
	Capacity int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("flowcache: capacity %d outside [1, %d]", e.Capacity, int(MaxCapacity))
}

// New wraps the classifier with a cache of the given capacity (flows).
// Capacities outside [1, MaxCapacity] are rejected with a *CapacityError;
// a capacity of 8 or more holds that many rounded down to a multiple of 8.
// When slow is a rules.BatchClassifier, ClassifyBatch forwards a batch's
// misses to it as one sub-batch; when it is Versioned, every call pins its
// live generation (see the package comment).
func New(slow rules.Classifier, capacity int) (*Cache, error) {
	if capacity < 1 || int64(capacity) > int64(MaxCapacity) {
		return nil, &CapacityError{Capacity: capacity}
	}
	sets := max(1, capacity/setWays)
	c := &Cache{
		slow:    slow,
		sets:    make([]setWords, sets),
		entries: make([]entry, min(capacity, sets*setWays)),
	}
	c.batch, _ = slow.(rules.BatchClassifier)
	if c.versioned, _ = slow.(Versioned); c.versioned != nil {
		_, c.gen = c.versioned.Live()
	}
	return c, nil
}

// pin returns the slow path this call's misses take: slow itself, or a
// Versioned slow path's live generation, loaded once. When that
// generation moved since the last call, the epoch advances first, so the
// call's hits were cached under the pinned generation too.
func (c *Cache) pin() (rules.Classifier, rules.BatchClassifier) {
	if c.versioned == nil {
		return c.slow, c.batch
	}
	g, n := c.versioned.Live()
	if n != c.gen {
		c.gen = n
		c.AdvanceEpoch()
	}
	return g, g
}

// locate packs h's 5-tuple into k and hashes it to its set, tag and
// fingerprint bits (bits 32-63, 24-31 and 8-23 of one hash, so the three
// are independent). It fills the caller's key in place: a returned key,
// copied by the caller, was read back wide right after its narrow field
// stores, and that store-forwarding stall doubled the cost of a hit in a
// microbenchmark. The engine pins flows to shards by the
// top bits of its own hash of the 5-tuple, so every key one cache sees
// shares them; other multipliers here keep the set index independent of
// that (engine.TestShardCachesFillEverySet).
func (c *Cache) locate(h rules.Header, k *key) {
	k.a = uint64(h.SrcIP)<<32 | uint64(h.DstIP)
	k.b = uint64(h.SrcPort)<<24 | uint64(h.DstPort)<<8 | uint64(h.Proto)
	x := k.a ^ k.b*0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xA0761D6478BD642F
	k.set = uint32((x >> 32) * uint64(len(c.sets)) >> 32)
	k.tag = max(1, uint8(x>>24))
	k.fp = uint16(x >> 8)
}

// SWAR constants for 8-bit lanes (tag words) and 16-bit ones (ghost
// words): a 1 in each lane's low bit, and every bit but each lane's top.
const (
	lanes8, low7   = 0x0101010101010101, 0x7F7F7F7F7F7F7F7F
	lanes16, low15 = 0x0001000100010001, 0x7FFF7FFF7FFF7FFF
)

// zeroLanes returns a word with the top bit set in exactly the lanes of x
// that are zero (low is low7 or low15). The cheaper borrow trick can also
// flag a non-zero lane above a zero one.
func zeroLanes(x, low uint64) uint64 { return ^((x&low + low) | x | low) }

// find returns the way of k's set holding k, whatever its epoch, or -1.
// Only ways whose tag equals k.tag are compared in full, and an empty
// way's tag never does: a zeroed entry cannot match the all-zero 5-tuple.
func (c *Cache) find(k *key) int {
	for m := zeroLanes(c.sets[k.set].tags^uint64(k.tag)*lanes8, low7); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m) >> 3
		if e := &c.entries[int(k.set)*setWays+w]; e.a == k.a && e.b == k.b {
			return w
		}
	}
	return -1
}

// lookup counts a probe for k and keeps its way in k.way: a hit returns
// the entry, recency refreshed; a miss (absent, or cached under an old
// epoch) returns nil.
func (c *Cache) lookup(k *key) *entry {
	k.way = int8(c.find(k))
	if k.way >= 0 {
		if e := &c.entries[int(k.set)*setWays+int(k.way)]; e.epoch == c.epoch {
			c.hits++
			c.clock++
			e.age = c.clock
			return e
		}
	}
	c.misses++
	return nil
}

// Classify answers as the wrapped classifier would, from the cache if it can.
func (c *Cache) Classify(h rules.Header) int {
	slow, _ := c.pin()
	var k key
	c.locate(h, &k)
	if e := c.lookup(&k); e != nil {
		return int(e.match)
	}
	match := slow.Classify(h)
	c.insert(&k, match)
	return match
}

// ClassifyBatch classifies hs[i] into out[i] (the
// rules.BatchClassifier contract; out must be at least as long as hs). Hits are
// served in a first pass; all misses are forwarded to the slow path as one
// sub-batch, so a batched slow path amortizes its work across every cold
// flow in the batch, and each miss keeps the key its probe resolved, so the
// insert after the walk hashes nothing. It probes a set again only after
// an earlier miss of the batch placed a flow there, which may be the same
// flow or may have taken the probed way. Results are identical to Classify calls; only the accounting differs — a
// flow missed twice within a batch counts two misses, where Classify would
// count the second as a hit.
func (c *Cache) ClassifyBatch(hs []rules.Header, out []int) {
	slow, batch := c.pin()
	out = out[:len(hs)]
	c.missHs = c.missHs[:0]
	c.missKeys = c.missKeys[:0]
	for i, h := range hs {
		var k key
		c.locate(h, &k)
		if e := c.lookup(&k); e != nil {
			out[i] = int(e.match)
			continue
		}
		k.idx = int32(i)
		c.missHs = append(c.missHs, h)
		c.missKeys = append(c.missKeys, k)
	}
	if len(c.missHs) == 0 {
		return
	}
	c.missOut = slices.Grow(c.missOut[:0], len(c.missHs))
	mo := c.missOut[:len(c.missHs)]
	if batch != nil {
		batch.ClassifyBatch(c.missHs, mo)
	} else {
		for i, h := range c.missHs {
			mo[i] = slow.Classify(h)
		}
	}
	var placed uint64 // bit s%64: an earlier miss placed a flow in set s
	for i := range c.missKeys {
		k := &c.missKeys[i]
		out[k.idx] = mo[i]
		bit := uint64(1) << (k.set % 64)
		if placed&bit != 0 { // k's probe may predate that flow
			k.way = int8(c.find(k))
		}
		if c.insert(k, mo[i]) {
			placed |= bit
		}
	}
}

// insert caches k's match after a miss, k.way being current: the way
// still holding k is refreshed, not duplicated; else the first empty way
// takes k; else a full set admits k only if its fingerprint is in the
// ghost, which it leaves, over the way touched longest ago (a staled one
// if any, every live way being younger); else k's fingerprint is pushed
// into the ghost, dropping the oldest, and nothing is cached. It reports
// whether it placed k in a way k did not hold.
func (c *Cache) insert(k *key, match int) bool {
	st := &c.sets[k.set]
	set := c.entries[int(k.set)*setWays:]
	set = set[:min(setWays, len(set))]
	w := int(k.way)
	if w < 0 {
		fp := k.fingerprint()
		empty := zeroLanes(st.tags, low7) & (1<<(8*len(set)) - 1)
		switch g := zeroLanes(st.ghost^fp*lanes16, low15); {
		case empty != 0:
			w = bits.TrailingZeros64(empty) >> 3
			c.used++
		case g != 0:
			at := bits.TrailingZeros64(g) &^ 15 // the lane's low bit
			st.ghost = st.ghost>>(at+16)<<at | st.ghost&(1<<at-1)
			w = 0
			for i := range set {
				if set[i].age < set[w].age {
					w = i
				}
			}
		default:
			st.ghost = st.ghost<<16 | fp
			c.refused++
			return false
		}
		st.tags = st.tags&^(0xFF<<(8*w)) | uint64(k.tag)<<(8*w)
	}
	c.clock++
	set[w] = entry{a: k.a, b: k.b, age: c.clock, match: int32(match), epoch: c.epoch}
	return k.way < 0
}

// Invalidate empties the cache; call it after the underlying rule set
// changes. It clears only the tag and ghost words (no tag, no way to the
// entry): O(capacity/8). Loops invalidating at churn rates should use
// AdvanceEpoch.
func (c *Cache) Invalidate() {
	clear(c.sets)
	c.used = 0
}

// AdvanceEpoch stales every cached entry in O(1): entries keep their
// ways but no longer hit, so the next packet of each flow re-takes the
// slow path and refreshes its way in place. The cache calls it itself
// when a Versioned slow path's generation moves: a delta-layer delete
// publishes a generation, the next call bumps the epoch, and no decision
// for the deleted rule is served again — without a clear per churn event.
//
// When the 32-bit counter wraps to E, a way last refreshed at E would pass
// the equality gate and serve a decision staled 2^32 invalidations ago.
// The once-per-wrap Invalidate makes every pre-wrap way unreachable, so
// correctness never rests on the counter not wrapping.
func (c *Cache) AdvanceEpoch() {
	c.epoch++
	if c.epoch == 0 {
		c.Invalidate()
	}
}

// Generation returns the Versioned slow path's generation the cache last
// pinned (at New, or at the latest call), which its live entries answer
// for; 0 when the slow path is not Versioned.
func (c *Cache) Generation() uint64 { return c.gen }

// Len returns the number of occupied ways, epoch-staled ones included.
func (c *Cache) Len() int { return c.used }

// Stats returns hit and miss counts since creation, and how many of the
// misses a full set refused to cache.
func (c *Cache) Stats() (hits, misses, refused uint64) { return c.hits, c.misses, c.refused }

// HitRate returns the hit fraction (0 when nothing was classified).
func (c *Cache) HitRate() float64 {
	if total := c.hits + c.misses; total > 0 {
		return float64(c.hits) / float64(total)
	}
	return 0
}
