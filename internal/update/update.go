// Package update adds dynamic rule-set updates on top of the static
// classifiers. Decision-tree structures like ExpCuts are built for lookup
// speed, not in-place modification (the paper's §1 makes the same point
// about TCAMs), so this package implements the strategy production systems
// use: updates are batched against the authoritative rule list, a
// replacement classifier is built off the fast path, and readers are
// switched over atomically — packets classify against a consistent
// generation at all times, with zero locking on the lookup path.
//
// The swap is guarded, not blind. Before a candidate generation goes
// live it passes a shadow conformance check: the candidate classifies a
// deterministic sample of headers and every answer is compared against
// priority linear search over the authoritative rule list. Every builder
// is a deterministic function of its rule set, so each ladder rung is
// built once per rebuild: a rung that fails to build, or builds a
// candidate that misclassifies, falls through to the next rung, and a
// rebuild whose every rung fails leaves the live generation untouched.
// The previous generation is retained so a bad generation detected
// after the swap can be rolled back instantly, without a rebuild. Health
// exposes the counters behind all of this.
package update

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildgov"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/rules"
	"repro/internal/tss"
)

// Classifier is the read-side contract of a managed generation: the
// lookup plus its footprint. A generation whose classifier also
// implements rules.BatchClassifier serves whole batches under a single
// atomic generation load; the manager's own ClassifyBatch falls back to a
// per-packet loop otherwise.
type Classifier interface {
	rules.Classifier
	MemoryBytes() int
}

// Builder constructs a classifier generation from a rule set (e.g. wrap
// expcuts.New with its Config applied).
type Builder func(rs *rules.RuleSet) (Classifier, error)

// BuilderCtx is a context-aware Builder: the manager passes a context
// carrying the per-build deadline (Config.BuildTimeout), and
// governed builders (expcuts.NewCtx and friends) abort cooperatively
// when it expires. Ladder rungs use this form.
type BuilderCtx func(ctx context.Context, rs *rules.RuleSet) (Classifier, error)

// Rung is one level of a degradation ladder: a named, context-aware
// builder. Rungs are ordered best-first; the manager serves the highest
// rung whose build succeeds, validates, and whose circuit breaker is not
// open.
type Rung struct {
	// Name identifies the rung in Health and reports ("expcuts",
	// "linear", ...).
	Name string
	// Build constructs the rung's classifier.
	Build BuilderCtx
}

// Op is one rule-set modification: an insert of Rule at priority position
// Pos (clamped to [0, len]) when Insert is set, otherwise the deletion of
// the rule at Pos. It is the delta layer's own op, so a batch reaches the
// delta layer and the journal without a copy.
type Op = tss.Op

// InsertAt builds an insert op.
func InsertAt(pos int, r rules.Rule) Op {
	return Op{Insert: true, Rule: r, Pos: pos}
}

// DeleteAt builds a delete op.
func DeleteAt(pos int) Op {
	return Op{Pos: pos}
}

// Config tunes the swap guard rails. The zero value enables validation
// with the defaults below.
type Config struct {
	// ValidateSamples is the number of sampled headers the shadow
	// conformance check classifies before a swap; 0 means
	// DefaultValidateSamples, negative disables validation.
	ValidateSamples int
	// BuildTimeout bounds each rung's build: the builder's context
	// carries this deadline, and governed builders abort cooperatively
	// when it expires. 0 means no per-build deadline.
	BuildTimeout time.Duration
	// CompactThreshold is how many delta ops accumulate before ApplyDelta
	// kicks off a background compaction folding them into a fresh tree
	// build; 0 means DefaultCompactThreshold, negative disables
	// auto-compaction (Compact can still be called explicitly).
	CompactThreshold int
	// Events, when non-nil, receives flight-recorder entries for the
	// manager's lifecycle transitions: generation swaps, rollbacks, rung
	// changes and circuit-breaker state changes. Events are recorded only
	// on the (mutex-serialized) update path, never during lookups.
	Events *obs.Ring
}

// Guard-rail defaults.
const (
	DefaultValidateSamples  = 256
	DefaultCompactThreshold = 256
)

// Circuit-breaker settings, the same for every rung (see breaker).
const (
	BreakerThreshold = 3
	BreakerCooldown  = 30 * time.Second
)

func (c *Config) fillDefaults() {
	if c.ValidateSamples == 0 {
		c.ValidateSamples = DefaultValidateSamples
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = DefaultCompactThreshold
	}
}

// Health is a point-in-time snapshot of the manager's introspection
// counters.
type Health struct {
	// Generation is the live generation number.
	Generation uint64
	// Rules is the live generation's rule count.
	Rules int
	// MemoryBytes is the live classifier's footprint, including the
	// delta layer's side table (Manager.MemoryBytes).
	MemoryBytes int
	// CanRollback reports whether a previous generation is retained.
	CanRollback bool
	// FailedBuilds counts rung builds that returned an error.
	FailedBuilds uint64
	// FailedValidations counts candidates rejected by the shadow
	// conformance check.
	FailedValidations uint64
	// Rollbacks counts successful Rollback calls.
	Rollbacks uint64
	// ActiveAlgorithm names the rung (or builder-reported algorithm)
	// serving the live generation.
	ActiveAlgorithm string
	// DegradationLevel is the live generation's ladder rung index: 0 is
	// the preferred builder, higher values mean the manager has fallen
	// further down the ladder. Always 0 for a NewManager manager.
	DegradationLevel int
	// BudgetTrips counts builds aborted by a buildgov budget
	// (wall-clock, node, heap or memo limit).
	BudgetTrips uint64
	// Breakers reports each ladder rung's circuit breaker, in rung
	// order. A NewManager manager has one rung, named after its
	// classifier.
	Breakers []BreakerStatus
	// LastError describes the most recent failed Apply/Rollback, empty
	// when the last operation succeeded.
	LastError string

	// DeltaOps is the number of edit ops absorbed by the live delta layer
	// since its tree base (0 when no delta is active).
	DeltaOps int
	// DeltaInserted is the number of live delta-inserted rules.
	DeltaInserted int
	// DeltaDead is the number of tree rules masked by delta deletes.
	DeltaDead int
	// DeltaAgeSeconds is how long the oldest unfolded delta has been
	// accumulating (0 when no delta is active).
	DeltaAgeSeconds float64
	// DeltaApplies counts successful ApplyDelta calls.
	DeltaApplies uint64
	// MaskScans counts lookups that fell back to scanning tree survivors
	// because the tree's best match was delta-deleted.
	MaskScans uint64
	// Compactions counts deltas successfully folded into fresh builds;
	// CompactionAborts counts compactions abandoned because the base
	// generation changed mid-build (a full Apply or Rollback landed);
	// CompactionFailures counts compactions whose build or validation
	// failed.
	Compactions        uint64
	CompactionAborts   uint64
	CompactionFailures uint64
	// Compacting reports whether a background compaction is in flight.
	Compacting bool
}

// BreakerStatus is one rung's circuit-breaker snapshot.
type BreakerStatus struct {
	// Rung is the rung name.
	Rung string
	// State is "closed", "open" or "half-open".
	State string
	// ConsecutiveFailures is the current failure streak (reset on any
	// success).
	ConsecutiveFailures int
}

// breaker is the per-rung circuit breaker. A rung that keeps failing
// (budget trips, build errors, validation rejections) opens after
// BreakerThreshold consecutive failures; while open, rebuilds skip the
// rung so the ladder falls through immediately instead of re-paying a
// doomed build. After BreakerCooldown the breaker half-opens: the next
// rebuild may probe the rung once, and a success closes it again.
type breaker struct {
	fails     int       // consecutive failures
	openUntil time.Time // zero when closed
}

func (b *breaker) allowed(now time.Time) bool {
	return b.fails < BreakerThreshold || !now.Before(b.openUntil) // half-open probe
}

func (b *breaker) fail(now time.Time) {
	b.fails++
	if b.fails >= BreakerThreshold {
		b.openUntil = now.Add(BreakerCooldown)
	}
}

func (b *breaker) success() {
	b.fails = 0
	b.openUntil = time.Time{}
}

func (b *breaker) state(now time.Time) string {
	switch {
	case b.fails < BreakerThreshold:
		return "closed"
	case now.Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// Manager owns the authoritative rule list and the live classifier
// generation. Classify is wait-free with respect to updates.
type Manager struct {
	ladder []Rung // degradation ladder, best rung first
	cfg    Config
	now    func() time.Time // time.Now, overridable in tests

	mu    sync.Mutex // serializes updates, not lookups
	name  string
	rules []rules.Rule
	gen   uint64
	prev  *generation // retained for Rollback; nil initially
	// baseEpoch counts live-tree changes (full rebuilds, rollbacks). The
	// compactor snapshots it before building and aborts its publish if it
	// moved — the optimistic-concurrency check that makes compaction safe
	// against concurrent Apply/Rollback without holding mu across builds.
	baseEpoch uint64
	// compacting marks an in-flight background compaction; while set,
	// ApplyDelta journals its ops so the compactor can replay edits that
	// landed during its build onto the fresh tree.
	compacting bool
	// compactPending bridges the gap between ApplyDelta scheduling an
	// auto-compaction goroutine and that goroutine acquiring mu — without
	// it, Quiesce could observe an idle manager with a compaction about to
	// start.
	compactPending bool
	journal        []Op
	deltaSince     time.Time // when the oldest unfolded delta landed

	// bmu guards the breakers separately from mu so the compactor's
	// off-lock ladder walk can record rung outcomes while an Apply holds
	// mu.
	bmu      sync.Mutex
	breakers []breaker // one per ladder rung

	failedBuilds      atomic.Uint64
	failedValidations atomic.Uint64
	rollbacks         atomic.Uint64
	budgetTrips       atomic.Uint64
	lastError         atomic.Pointer[string]

	deltaApplies       obs.Counter
	maskScans          obs.Counter
	compactions        obs.Counter
	compactionAborts   obs.Counter
	compactionFailures obs.Counter
	deltaApplyNs       obs.Hist

	live atomic.Pointer[generation]
}

// generation pairs a classifier with the rule snapshot it serves, plus
// the ladder position that produced it. When delta is non-nil the
// classifier was built from delta.Base() and rules holds the combined
// list (base + absorbed edits); lookups resolve the tree's base-index
// answer through the delta. A generation is immutable once published, so
// one live.Load pins a coherent (tree, delta) pair for a whole batch.
type generation struct {
	cl    Classifier
	rules []rules.Rule
	gen   uint64
	algo  string
	rung  int
	delta *tss.Delta // nil when the tree serves its own snapshot
}

// NewManager builds the initial generation from the rule set with the
// default guard rails.
func NewManager(rs *rules.RuleSet, build Builder) (*Manager, error) {
	return NewManagerConfig(rs, build, Config{})
}

// NewManagerConfig is NewManager with explicit guard-rail configuration.
// The builder is a one-rung ladder, named after the classifier its first
// build returns.
func NewManagerConfig(rs *rules.RuleSet, build Builder, cfg Config) (*Manager, error) {
	m, err := newManagerLadder(rs, []Rung{{Build: func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
		return build(rs)
	}}}, cfg)
	if err != nil {
		return nil, err
	}
	m.ladder[0].Name = m.live.Load().algo
	return m, nil
}

// NewManagerLadder builds the initial generation through a degradation
// ladder: rungs are tried best-first, each guarded by its own circuit
// breaker, and the first rung that builds within budget and validates
// against the linear oracle serves. As long as the final rung is total
// (DefaultLadder ends on linear search, which cannot fail), a servable
// generation is always produced no matter how hostile the rule set is to
// the preferred builders.
func NewManagerLadder(rs *rules.RuleSet, ladder []Rung, cfg Config) (*Manager, error) {
	if len(ladder) == 0 {
		return nil, fmt.Errorf("update: ladder must have at least one rung")
	}
	for i, r := range ladder {
		if r.Build == nil {
			return nil, fmt.Errorf("update: ladder rung %d (%q) has a nil builder", i, r.Name)
		}
		if r.Name == "" {
			ladder[i].Name = fmt.Sprintf("rung%d", i)
		}
	}
	return newManagerLadder(rs, ladder, cfg)
}

func newManagerLadder(rs *rules.RuleSet, ladder []Rung, cfg Config) (*Manager, error) {
	cfg.fillDefaults()
	m := &Manager{
		ladder:   ladder,
		cfg:      cfg,
		now:      time.Now,
		name:     rs.Name,
		rules:    append([]rules.Rule(nil), rs.Rules...),
		breakers: make([]breaker, len(ladder)),
	}
	if err := m.rebuildLocked(); err != nil {
		return nil, err
	}
	return m, nil
}

// Classify classifies against the live generation. The returned index
// refers to that generation's snapshot; use Snapshot for the matching rule
// list. With a delta layer active, the tree's answer is resolved through
// it — inserted rules can win, deleted rules are masked — still with zero
// locking and zero allocation.
func (m *Manager) Classify(h rules.Header) int { return m.live.Load().Classify(h) }

// ClassifyBatch classifies hs[i] into out[i] against the live generation.
// The generation pointer is loaded once for the whole batch, so every
// packet in a batch classifies against the same consistent snapshot even
// if an Apply lands mid-batch — a strictly stronger consistency grain
// than the per-packet loop, at one atomic load per batch instead of one
// per packet.
func (m *Manager) ClassifyBatch(hs []rules.Header, out []int) { m.live.Load().ClassifyBatch(hs, out) }

// Live returns the live generation and its number. The generation is
// immutable and classifies on its own, tree and delta resolved together,
// for as long as the caller holds it: a flow cache pins it for one call,
// so every answer of the call, hit or miss, comes from that generation.
func (m *Manager) Live() (rules.BatchClassifier, uint64) {
	g := m.live.Load()
	return g, g.gen
}

// Classify classifies h against g alone.
func (g *generation) Classify(h rules.Header) int {
	match := g.cl.Classify(h)
	if g.delta != nil {
		return g.delta.Resolve(h, match)
	}
	return match
}

// ClassifyBatch classifies hs[i] into out[i] against g alone, batched
// when g's classifier supports it.
func (g *generation) ClassifyBatch(hs []rules.Header, out []int) {
	out = out[:len(hs)]
	if bc, ok := g.cl.(rules.BatchClassifier); ok {
		bc.ClassifyBatch(hs, out)
	} else {
		for i, h := range hs {
			out[i] = g.cl.Classify(h)
		}
	}
	if g.delta != nil {
		// The tree and the delta were published together, so the whole
		// batch resolves against one coherent (tree, delta) snapshot.
		g.delta.ResolveBatch(hs, out)
	}
}

// Snapshot returns the live generation's rule list (callers must not
// modify it) and generation number.
func (m *Manager) Snapshot() ([]rules.Rule, uint64) {
	g := m.live.Load()
	return g.rules, g.gen
}

// Generation returns the live generation number; it increments on every
// successful Apply, ApplyDelta, compaction or Rollback and never moves
// backwards. A flow cache over the manager (internal/flowcache) reads it
// through Live and stales its entries whenever it differs from the number
// they were cached under: a number never reused is what lets one
// comparison stand for "the rule set has not moved".
func (m *Manager) Generation() uint64 {
	return m.live.Load().gen
}

// MemoryBytes reports the live classifier's footprint, including the
// delta layer's side table when one is active.
func (m *Manager) MemoryBytes() int {
	return m.live.Load().memoryBytes()
}

func (g *generation) memoryBytes() int {
	b := g.cl.MemoryBytes()
	if g.delta != nil {
		b += g.delta.MemoryBytes()
	}
	return b
}

// Health returns the manager's introspection counters.
func (m *Manager) Health() Health {
	m.mu.Lock()
	canRollback := m.prev != nil
	compacting := m.compacting
	deltaSince := m.deltaSince
	m.mu.Unlock()
	now := m.now()
	breakers := make([]BreakerStatus, len(m.ladder))
	m.bmu.Lock()
	for i := range m.ladder {
		breakers[i] = BreakerStatus{
			Rung:                m.ladder[i].Name,
			State:               m.breakers[i].state(now),
			ConsecutiveFailures: m.breakers[i].fails,
		}
	}
	m.bmu.Unlock()
	g := m.live.Load()
	h := Health{
		Generation:        g.gen,
		Rules:             len(g.rules),
		MemoryBytes:       g.memoryBytes(),
		CanRollback:       canRollback,
		FailedBuilds:      m.failedBuilds.Load(),
		FailedValidations: m.failedValidations.Load(),
		Rollbacks:         m.rollbacks.Load(),
		ActiveAlgorithm:   g.algo,
		DegradationLevel:  g.rung,
		BudgetTrips:       m.budgetTrips.Load(),
		Breakers:          breakers,

		DeltaApplies:       m.deltaApplies.Load(),
		MaskScans:          m.maskScans.Load(),
		Compactions:        m.compactions.Load(),
		CompactionAborts:   m.compactionAborts.Load(),
		CompactionFailures: m.compactionFailures.Load(),
		Compacting:         compacting,
	}
	if g.delta != nil {
		h.DeltaOps = g.delta.Ops()
		h.DeltaInserted = g.delta.Inserted()
		h.DeltaDead = g.delta.Dead()
		if !deltaSince.IsZero() {
			h.DeltaAgeSeconds = m.now().Sub(deltaSince).Seconds()
		}
	}
	if s := m.lastError.Load(); s != nil {
		h.LastError = *s
	}
	return h
}

// DescribeAlgorithm reports the live generation's algorithm name and
// degradation level (ladder rung index; 0 = preferred), the pair Health
// also carries.
func (m *Manager) DescribeAlgorithm() (algo string, degradation int) {
	g := m.live.Load()
	return g.algo, g.rung
}

// Apply validates and applies a batch of ops atomically: either the whole
// batch becomes visible as one new generation, or the live generation is
// unchanged. The fast path keeps serving the old generation during the
// rebuild; the candidate passes the shadow conformance check before the
// swap. The ops mean exactly what they mean to ApplyDelta: the next rule
// list is the one a fresh delta layer over the current list produces.
func (m *Manager) Apply(ops []Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, err := tss.NewDelta(m.rules, nil).Apply(ops)
	if err != nil {
		return m.fail(fmt.Errorf("update: %w", err))
	}
	old := m.rules
	m.rules = d.Rules()
	if err := m.rebuildLocked(); err != nil {
		m.rules = old
		return m.fail(fmt.Errorf("update: rebuild failed, batch rolled back: %w", err))
	}
	m.clearError()
	return nil
}

// Rollback atomically reinstates the previous generation — its classifier
// and rule snapshot become authoritative under a new generation number,
// with no rebuild and no validation (the generation already served).
// It fails when no previous generation is retained; rolling back twice
// swaps forth and back.
func (m *Manager) Rollback() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prev == nil {
		return m.fail(fmt.Errorf("update: no previous generation to roll back to"))
	}
	target := m.prev
	m.prev = m.live.Load()
	m.rules = append([]rules.Rule(nil), target.rules...)
	m.gen++
	// The live tree base changed: an in-flight compaction built against
	// the rolled-away state must abort at its publish check.
	m.baseEpoch++
	m.live.Store(&generation{cl: target.cl, rules: target.rules, gen: m.gen,
		algo: target.algo, rung: target.rung, delta: target.delta})
	if target.delta == nil {
		m.deltaSince = time.Time{}
	} else if m.deltaSince.IsZero() {
		m.deltaSince = m.now()
	}
	m.rollbacks.Add(1)
	m.cfg.Events.Recordf(obs.EventRollback,
		"generation %d reinstates %s (rung %d)", m.gen, target.algo, target.rung)
	m.clearError()
	return nil
}

// rebuildLocked builds, validates and publishes a new generation from
// m.rules, retaining the outgoing generation for Rollback. Any delta
// layer on the outgoing generation is absorbed: the new tree is built
// from the full combined list, so the published generation serves with
// delta == nil.
func (m *Manager) rebuildLocked() error {
	snapshot := append([]rules.Rule(nil), m.rules...)
	rs := rules.NewRuleSet(fmt.Sprintf("%s@%d", m.name, m.gen+1), snapshot)
	cl, algo, rung, err := m.buildLadder(rs)
	if err != nil {
		return err
	}
	m.publishLocked(cl, snapshot, algo, rung, nil)
	return nil
}

// publishLocked installs a built-and-validated classifier as the new live
// generation (mu held). The tree base changed, so baseEpoch advances and
// any in-flight compaction will abort at its publish check.
func (m *Manager) publishLocked(cl Classifier, snapshot []rules.Rule, algo string, rung int, delta *tss.Delta) {
	m.gen++
	m.baseEpoch++
	cur := m.live.Load()
	if cur != nil {
		m.prev = cur
	}
	m.live.Store(&generation{cl: cl, rules: snapshot, gen: m.gen, algo: algo, rung: rung, delta: delta})
	if delta == nil {
		m.deltaSince = time.Time{}
	} else {
		m.deltaSince = m.now()
	}
	m.cfg.Events.Recordf(obs.EventSwap,
		"generation %d live: %s (rung %d, %d rules)", m.gen, algo, rung, len(snapshot))
	if cur != nil && cur.rung != rung {
		m.cfg.Events.Recordf(obs.EventRungChange,
			"degradation level %d -> %d (%s -> %s)", cur.rung, rung, cur.algo, algo)
	}
}

// buildLadder walks the degradation ladder best-first and returns the
// first classifier that builds within budget and validates, with its
// algorithm name and rung index. Each rung is built at most once. Rungs
// whose breaker is open are skipped (the final rung is always attempted
// if nothing else was, so a fully tripped ladder still reaches its total
// fallback); a rung that fails
// records on its breaker, a rung that serves closes it. Breaker access
// goes through bmu, not mu, so this walk runs identically under
// rebuildLocked (mu held) and under the background compactor (mu
// released) — two walks may interleave, each a short uncontended lock
// per breaker touch.
func (m *Manager) buildLadder(rs *rules.RuleSet) (Classifier, string, int, error) {
	ladder := m.ladder
	now := m.now()
	// failRung records a rung failure on its breaker and emits a
	// flight-recorder event exactly when the failure transitioned the
	// breaker into the open state.
	failRung := func(i int) {
		m.bmu.Lock()
		before := m.breakers[i].state(now)
		m.breakers[i].fail(now)
		opened := before != "open" && m.breakers[i].state(now) == "open"
		fails := m.breakers[i].fails
		m.bmu.Unlock()
		if opened {
			m.cfg.Events.Recordf(obs.EventBreakerOpen,
				"rung %s breaker opened after %d consecutive failures",
				rungName(ladder, i), fails)
		}
	}
	var failures []error
	for i := range ladder {
		m.bmu.Lock()
		allowed := m.breakers[i].allowed(now)
		state := m.breakers[i].state(now)
		m.bmu.Unlock()
		// The final rung is always attempted: a servable generation
		// beats breaker hygiene, and DefaultLadder ends on linear
		// search, which cannot fail.
		if i != len(ladder)-1 && !allowed {
			failures = append(failures, fmt.Errorf("%s: breaker open", rungName(ladder, i)))
			continue
		}
		if state == "half-open" {
			m.cfg.Events.Recordf(obs.EventBreakerHalfOpen,
				"rung %s breaker half-open, probing one build", rungName(ladder, i))
		}
		cl, err := m.buildRung(ladder[i], rs)
		if err != nil {
			m.failedBuilds.Add(1)
			if errors.Is(err, buildgov.ErrBudgetExceeded) {
				m.budgetTrips.Add(1)
			}
			failRung(i)
			failures = append(failures, fmt.Errorf("%s: %w", rungName(ladder, i), err))
			continue
		}
		if err := m.validate(cl, rs); err != nil {
			m.failedValidations.Add(1)
			failRung(i)
			failures = append(failures, fmt.Errorf("%s: %w", rungName(ladder, i), err))
			continue
		}
		m.bmu.Lock()
		wasClosed := m.breakers[i].state(now) == "closed"
		m.breakers[i].success()
		m.bmu.Unlock()
		if !wasClosed {
			m.cfg.Events.Recordf(obs.EventBreakerClose,
				"rung %s breaker closed after successful build", rungName(ladder, i))
		}
		algo := ladder[i].Name
		if algo == "" { // NewManagerConfig's rung before its first build
			if n, ok := cl.(interface{ Name() string }); ok {
				algo = n.Name()
			} else {
				algo = "custom"
			}
		}
		return cl, algo, i, nil
	}
	return nil, "", 0, fmt.Errorf("update: every ladder rung failed: %w", errors.Join(failures...))
}

func rungName(ladder []Rung, i int) string {
	if ladder[i].Name != "" {
		return ladder[i].Name
	}
	return fmt.Sprintf("rung%d", i)
}

// buildRung runs a rung's builder once, under the configured per-build
// deadline. Builders are deterministic functions of their rule set, so a
// retry would fail the same way: a failed build falls through the ladder.
func (m *Manager) buildRung(rung Rung, rs *rules.RuleSet) (Classifier, error) {
	ctx := context.Background()
	if m.cfg.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.BuildTimeout)
		defer cancel()
	}
	cl, err := rung.Build(ctx, rs)
	if err == nil && cl == nil {
		err = errors.New("update: builder returned a nil classifier")
	}
	return cl, err
}

// validate shadow-checks the candidate against priority linear search over
// the authoritative rule list on a deterministic sampled header set.
func (m *Manager) validate(cl Classifier, rs *rules.RuleSet) error {
	if m.cfg.ValidateSamples < 0 {
		return nil
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{
		Count:         m.cfg.ValidateSamples,
		Seed:          1,
		MatchFraction: 0.9,
	})
	if err != nil {
		return fmt.Errorf("update: generating validation sample: %w", err)
	}
	for _, h := range tr.Headers {
		got := safeClassify(cl, h)
		if want := rs.Match(h); got != want {
			return fmt.Errorf("update: validation failed: candidate classifies %v as %d, linear oracle says %d", h, got, want)
		}
	}
	return nil
}

// safeClassify contains candidate panics during validation: a classifier
// that panics on a sampled header is as rejected as one that misclassifies.
func safeClassify(cl Classifier, h rules.Header) (match int) {
	defer func() {
		if recover() != nil {
			match = -2 // never a legal match value, so validation fails
		}
	}()
	return cl.Classify(h)
}

// fail records err in Health.LastError and returns it.
func (m *Manager) fail(err error) error {
	s := err.Error()
	m.lastError.Store(&s)
	return err
}

func (m *Manager) clearError() {
	m.lastError.Store(nil)
}
