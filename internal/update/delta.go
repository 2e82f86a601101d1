// Delta-layer updates: the microsecond path for live rule churn.
//
// Apply rebuilds a decision tree per batch — milliseconds at best, and a
// burst of edits serializes behind builds. ApplyDelta instead absorbs
// edits into a tuple-space side table (internal/tss) layered over the
// immutable live tree: inserts land as O(1) hash-table entries, deletes
// mask tree rules, and every lookup resolves to the first match over the
// combined view. The tree goes stale only in the sense that its answers
// pass through the delta; correctness is unchanged, and a background
// compaction folds accumulated deltas into a fresh budgeted build through
// the same shadow-validate + atomic-swap + rollback machinery full
// rebuilds use. Serving stays correct off (old tree + full delta) for the
// entire compaction, and Rollback remains instant throughout.
package update

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/tss"
)

// Compaction outcome sentinels.
var (
	// ErrCompactionConflict: Compact was called while another compaction
	// was already in flight.
	ErrCompactionConflict = errors.New("update: a compaction is already in flight")
	// ErrCompactionAborted: the base generation changed (full Apply or
	// Rollback landed) while the compactor was building, so its
	// candidate was discarded. Nothing was lost: the edits it meant to
	// fold are still live in the delta layer.
	ErrCompactionAborted = errors.New("update: compaction aborted: base generation changed during build")
)

// ApplyDelta absorbs a batch of ops into the delta layer and publishes
// the result as a new generation in microseconds — no tree build, no
// validation pass (the delta structures are exact by construction, unlike
// a compiled tree candidate). The batch is atomic and positions share the
// priority space of Apply: feeding the same edit stream to either path
// yields the same rule list. Lookups immediately serve the combined view;
// a delta delete masks its tree rule from the very next Classify.
//
// When the accumulated delta crosses Config.CompactThreshold a background
// compaction starts automatically (unless one is already running or the
// threshold is negative).
func (m *Manager) ApplyDelta(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.live.Load()
	d := g.delta
	if d == nil {
		d = tss.NewDelta(g.rules, &m.maskScans)
	}
	nd, err := d.Apply(ops)
	if err != nil {
		return m.fail(fmt.Errorf("update: delta apply: %w", err))
	}
	m.rules = nd.Rules()
	m.gen++
	m.prev = g
	m.live.Store(&generation{cl: g.cl, rules: nd.Rules(), gen: m.gen,
		algo: g.algo, rung: g.rung, delta: nd})
	if g.delta == nil {
		m.deltaSince = m.now()
	}
	if m.compacting {
		// A compactor is building against the pre-batch state: journal
		// the ops so it can replay them onto the fresh tree at publish.
		m.journal = append(m.journal, ops...)
	}
	m.deltaApplies.Inc()
	m.deltaApplyNs.Observe(uint64(time.Since(start)))
	m.clearError()
	if t := m.cfg.CompactThreshold; t > 0 && nd.Ops() >= t && !m.compacting && !m.compactPending {
		m.compactPending = true
		go func() { _ = m.compactOnce() }()
	}
	return nil
}

// Compact synchronously folds the accumulated delta into a fresh tree
// build through the ladder + shadow-validation path. It returns nil when
// there was nothing to fold, ErrCompactionConflict when a compaction is
// already in flight, and ErrCompactionAborted when a concurrent full
// rebuild or rollback invalidated the build (the delta stays live, so
// nothing is lost). Serving continues off (old tree + full delta) for the
// whole call.
func (m *Manager) Compact() error {
	return m.compactOnce()
}

// compactOnce is one compaction attempt: snapshot the combined rule list
// under mu, build and validate a fresh classifier with mu released (so
// ApplyDelta keeps landing in microseconds throughout), then publish
// under mu — but only if the base generation is still the one the
// snapshot came from, and with any mid-build edits replayed onto the new
// tree as a fresh (much smaller) delta. The optimistic epoch check plus
// the journal replay is what guarantees no edit is ever lost or applied
// twice across a compaction, no matter how Apply, ApplyDelta and
// Rollback interleave with it.
func (m *Manager) compactOnce() error {
	m.mu.Lock()
	m.compactPending = false
	if m.compacting {
		m.mu.Unlock()
		return ErrCompactionConflict
	}
	g := m.live.Load()
	if g.delta == nil || g.delta.Empty() {
		m.mu.Unlock()
		return nil
	}
	m.compacting = true
	m.journal = nil
	epoch := m.baseEpoch
	snapshot := append([]rules.Rule(nil), g.rules...)
	m.mu.Unlock()

	rs := rules.NewRuleSet(fmt.Sprintf("%s@compact%d", m.name, epoch), snapshot)
	cl, algo, rung, buildErr := m.buildLadder(rs)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.compacting = false
	journal := m.journal
	m.journal = nil
	if buildErr != nil {
		// Breakers already recorded per-rung failures inside buildLadder;
		// serving is untouched (old tree + full delta, still exact).
		m.compactionFailures.Inc()
		m.cfg.Events.Recordf(obs.EventCompactAbort, "compaction build failed: %v", buildErr)
		return m.fail(fmt.Errorf("update: compaction failed: %w", buildErr))
	}
	if m.baseEpoch != epoch {
		m.compactionAborts.Inc()
		m.cfg.Events.Recordf(obs.EventCompactAbort,
			"compaction discarded: base generation changed during build")
		return ErrCompactionAborted
	}
	var nd *tss.Delta
	cur := snapshot
	if len(journal) > 0 {
		d, err := tss.NewDelta(snapshot, &m.maskScans).Apply(journal)
		if err != nil {
			// Unreachable by construction: every journaled op was already
			// validated by the ApplyDelta that recorded it, against exactly
			// the list state this replay reproduces.
			m.compactionFailures.Inc()
			return m.fail(fmt.Errorf("update: compaction journal replay: %w", err))
		}
		nd = d
		cur = d.Rules()
	}
	m.rules = cur
	m.publishLocked(cl, cur, algo, rung, nd)
	m.compactions.Inc()
	m.cfg.Events.Recordf(obs.EventCompact,
		"generation %d compacted onto %s: %d rules, %d mid-build ops replayed",
		m.gen, algo, len(snapshot), len(journal))
	m.clearError()
	return nil
}

// Quiesce blocks until no compaction is in flight or about to start, or
// until timeout elapses; it reports whether the manager quiesced.
// Intended for tests and orderly shutdown.
func (m *Manager) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		idle := !m.compacting && !m.compactPending
		m.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}
