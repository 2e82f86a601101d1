// Accounting-identity property test: on every serving path, under every
// overload policy and failure mode, each packet offered to the engine is
// accounted exactly once —
//
//	matched + no-match + shed + canceled + panicked == offered
//
// with the matched/no-match split read from the emitted results and the
// rest cross-checked against Stats, through RunContext, RunStream and
// RunTenants alike. Packet counts are deliberately not
// multiples of BatchSize, so the final short batch and the pending-batch
// flush paths are always exercised.
package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rules"
)

// tally classifies one run's emissions into the identity's buckets.
type tally struct {
	matched, noMatch, shed, canceled, panicked int
}

func (a *tally) add(r Result) error {
	var pe *PanicError
	switch {
	case r.Err == nil && r.Match >= 0:
		a.matched++
	case r.Err == nil:
		a.noMatch++
	case errors.Is(r.Err, ErrShed):
		a.shed++
	case errors.As(r.Err, &pe):
		a.panicked++
	default:
		a.canceled++
	}
	if r.Err != nil && r.Match != -1 {
		return fmt.Errorf("seq %d: failed result carries match %d", r.Seq, r.Match)
	}
	return nil
}

// check asserts the identity and the Stats cross-checks for one run.
// Stats.Canceled may exceed the emitted canceled count by the
// undispatched tail (counted, never emitted); everything else must agree
// with the emissions exactly.
func (a *tally) check(t *testing.T, st Stats, offered int) {
	t.Helper()
	if st.Packets != a.matched+a.noMatch {
		t.Errorf("Stats.Packets = %d, emitted %d matched + %d no-match",
			st.Packets, a.matched, a.noMatch)
	}
	if st.Shed != a.shed {
		t.Errorf("Stats.Shed = %d, emitted %d", st.Shed, a.shed)
	}
	if st.Panics != a.panicked {
		t.Errorf("Stats.Panics = %d, emitted %d", st.Panics, a.panicked)
	}
	if st.Canceled < a.canceled {
		t.Errorf("Stats.Canceled = %d < %d emitted canceled", st.Canceled, a.canceled)
	}
	if got := st.Packets + st.Shed + st.Panics + st.Canceled; got != offered {
		t.Errorf("identity: %d matched+no-match + %d shed + %d panicked + %d canceled = %d, want %d offered",
			st.Packets, st.Shed, st.Panics, st.Canceled, got, offered)
	}
}

// entryPoint is one of the engine's three entry points, serving hs and
// reporting how many packets it was offered: all of hs, except that
// RunStream leaves what it never pulled in the source. RunTenants carries
// every packet on tenant 0, whose lane sheds exactly when cfg does, and
// checks its per-tenant identity as well.
type entryPoint struct {
	name  string
	serve func(t *testing.T, ctx context.Context, cl Classifier, cfg Config, hs []rules.Header, emit func(Result)) (Stats, int, error)
}

var entryPoints = []entryPoint{
	{"slice", func(t *testing.T, ctx context.Context, cl Classifier, cfg Config, hs []rules.Header, emit func(Result)) (Stats, int, error) {
		st, err := RunContext(ctx, cl, cfg, hs, emit)
		return st, len(hs), err
	}},
	{"stream", func(t *testing.T, ctx context.Context, cl Classifier, cfg Config, hs []rules.Header, emit func(Result)) (Stats, int, error) {
		src := &countingSource{inner: SliceSource{Headers: hs}}
		st, err := RunStream(ctx, cl, cfg, src, emit)
		return st, src.yielded, err
	}},
	{"tenants", func(t *testing.T, ctx context.Context, cl Classifier, cfg Config, hs []rules.Header, emit func(Result)) (Stats, int, error) {
		pkts := tenantStream(hs, []uint32{0})
		res := mapResolver{0: asLane(cl, cfg.Overload == OverloadShed)}
		ts, err := RunTenants(ctx, res, cfg, pkts, func(r TenantResult) { emit(r.Result) })
		checkTenantIdentity(t, ts, pkts, cfg.Shards)
		return ts.Stats, len(hs), err
	}},
}

// eachEntryPoint runs one identity case through every entry point: newCl
// builds a fresh classifier per run (fault injectors count their calls),
// timeout bounds each run when nonzero, and check sees the run's tally.
func eachEntryPoint(t *testing.T, newCl func() Classifier, cfg Config, hs []rules.Header, timeout time.Duration,
	check func(t *testing.T, a *tally, st Stats, offered int, err error)) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			ctx := context.Background()
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			var a tally
			st, offered, err := ep.serve(t, ctx, newCl(), cfg, hs, func(r Result) {
				if e := a.add(r); e != nil {
					t.Error(e)
				}
			})
			a.check(t, st, offered)
			check(t, &a, st, offered, err)
		})
	}
}

func TestAccountingIdentityProperty(t *testing.T) {
	_, tree, headers := fixtures(t, 4097)
	shardCounts := []int{1, 3, 8}
	policies := []OverloadPolicy{OverloadBlock, OverloadShed}

	// Clean and panicky runs: every shard count × overload policy ×
	// batch-unaligned packet count, ordered and unordered.
	for _, n := range []int{257, 1037, 4097} {
		hs := headers[:n]
		for _, shards := range shardCounts {
			for _, policy := range policies {
				for _, ordered := range []bool{true, false} {
					cfg := Config{Shards: shards, BatchSize: 16, Overload: policy,
						PreserveOrder: ordered, Metrics: NewMetrics(8)}
					t.Run(fmt.Sprintf("clean/n=%d/shards=%d/%v/ordered=%v", n, shards, policy, ordered), func(t *testing.T) {
						eachEntryPoint(t, func() Classifier { return tree }, cfg, hs, 0,
							func(t *testing.T, a *tally, st Stats, offered int, err error) {
								if err != nil {
									t.Fatal(err)
								}
								if a.matched == 0 {
									t.Error("trace with 0.9 match fraction matched nothing")
								}
							})
					})
				}
				t.Run(fmt.Sprintf("panicky/n=%d/shards=%d/%v", n, shards, policy), func(t *testing.T) {
					newCl := func() Classifier { return &faultinject.PanickyClassifier{Inner: tree, EveryN: 61} }
					cfg := Config{Shards: shards, BatchSize: 16, Overload: policy, PreserveOrder: true}
					eachEntryPoint(t, newCl, cfg, hs, 0, func(t *testing.T, a *tally, st Stats, offered int, err error) {
						if err == nil {
							t.Fatal("contained panics must surface as a run error")
						}
						if a.panicked == 0 {
							t.Error("panic injection every 61 packets produced no panicked results")
						}
					})
				})
			}
		}
	}

	// Shed runs: one-deep rings and a dawdling classifier force tail
	// drops on every shard count.
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shed/shards=%d", shards), func(t *testing.T) {
			newCl := func() Classifier {
				return &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 20 * time.Microsecond}
			}
			cfg := Config{Shards: shards, QueueDepth: 1, BatchSize: 16, Overload: OverloadShed}
			eachEntryPoint(t, newCl, cfg, headers[:1037], 0, func(t *testing.T, a *tally, st Stats, offered int, err error) {
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}

	// Deadline runs: a deadline far shorter than the classification work
	// cancels packets mid-run; the identity must still hold exactly.
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("deadline/shards=%d", shards), func(t *testing.T) {
			newCl := func() Classifier {
				return &faultinject.SlowClassifier{Inner: tree, EveryN: 1, Delay: 50 * time.Microsecond}
			}
			cfg := Config{Shards: shards, BatchSize: 16, PreserveOrder: true}
			eachEntryPoint(t, newCl, cfg, headers[:4097], 10*time.Millisecond,
				func(t *testing.T, a *tally, st Stats, offered int, err error) {
					if err == nil {
						t.Fatal("expected a cancellation error")
					}
					if st.Canceled == 0 {
						t.Error("a 10ms deadline against ~200ms of work canceled nothing")
					}
				})
		})
	}
}
