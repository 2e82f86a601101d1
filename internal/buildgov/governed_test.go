package buildgov_test

// Cross-package robustness suite: proves that a tiny budget plus an
// adversarial rule set cancels every governed builder cooperatively —
// within 2x the wall-clock deadline, with a typed error, and without
// leaking a single goroutine — and that the checked-in pathological
// corpus keeps doing so (TestBudgetSoak, run by CI in its own job).

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/buildgov"
	"repro/internal/expcuts"
	"repro/internal/faultinject"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

var updateCorpus = flag.Bool("update", false, "regenerate the pathological corpus in testdata/")

// builders is every governed build entry point, uniformly shaped.
var builders = []struct {
	name  string
	build func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) error
}{
	{"expcuts", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) error {
		_, err := expcuts.NewCtx(ctx, rs, expcuts.Config{}, b)
		return err
	}},
	{"hicuts", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) error {
		_, err := hicuts.NewCtx(ctx, rs, hicuts.Config{}, b)
		return err
	}},
	{"hypercuts", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) error {
		_, err := hypercuts.NewCtx(ctx, rs, hypercuts.Config{}, b)
		return err
	}},
	{"hsm", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) error {
		_, err := hsm.NewCtx(ctx, rs, hsm.Config{}, b)
		return err
	}},
	{"rfc", func(ctx context.Context, rs *rules.RuleSet, b *buildgov.Budget) error {
		_, err := rfc.NewCtx(ctx, rs, rfc.Config{}, b)
		return err
	}},
}

// corpus maps each checked-in testdata file to the deterministic
// generator that produced it; TestCorpusMatchesGenerators enforces the
// mapping, so the files can always be regenerated with -update.
var corpus = []struct {
	file string
	gen  func() *rules.RuleSet
}{
	{"overlap-grid-16.rules", func() *rules.RuleSet { return faultinject.OverlapGrid("overlap-grid-16", 16) }},
	{"overlap-grid-32.rules", func() *rules.RuleSet { return faultinject.OverlapGrid("overlap-grid-32", 32) }},
	{"wildcard-storm-200.rules", func() *rules.RuleSet { return faultinject.WildcardStorm("wildcard-storm-200", 200, 7) }},
	{"wildcard-storm-500.rules", func() *rules.RuleSet { return faultinject.WildcardStorm("wildcard-storm-500", 500, 7) }},
}

// waitNoLeaks gives transient runtime goroutines a moment to exit, then
// asserts we are back at the baseline count.
func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestDeadlineBudgetCancelsRunawayBuilds pins the headline guarantee:
// every governed builder, pointed at a rule set hostile to it and given
// only a wall-clock budget, aborts with ErrBudgetExceeded within 2x the
// deadline and leaks nothing.
func TestDeadlineBudgetCancelsRunawayBuilds(t *testing.T) {
	const timeout = 300 * time.Millisecond
	// storm500 blows up every decision-tree builder and rfc;
	// storm200 is the one that gets past hsm's own table cap far
	// enough to run long (storm500 trips hsm's MaxTableEntries check
	// before the clock matters). ExpCuts builds storm200 in about the
	// deadline since it expands by cell class, so it gets storm500.
	cases := []struct {
		builder string
		set     *rules.RuleSet
	}{
		{"expcuts", faultinject.WildcardStorm("storm", 500, 7)},
		{"hicuts", faultinject.WildcardStorm("storm", 200, 7)},
		{"hypercuts", faultinject.WildcardStorm("storm", 200, 7)},
		{"hsm", faultinject.WildcardStorm("storm", 200, 7)},
		{"rfc", faultinject.WildcardStorm("storm", 500, 7)},
	}
	base := runtime.NumGoroutine()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.builder, func(t *testing.T) {
			var build func(context.Context, *rules.RuleSet, *buildgov.Budget) error
			for _, b := range builders {
				if b.name == tc.builder {
					build = b.build
				}
			}
			start := time.Now()
			err := build(context.Background(), tc.set, &buildgov.Budget{Timeout: timeout})
			elapsed := time.Since(start)
			if !errors.Is(err, buildgov.ErrBudgetExceeded) {
				t.Fatalf("build finished with %v, want a budget trip", err)
			}
			var be *buildgov.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("error %v carries no *BudgetError", err)
			}
			if be.Limit != "deadline" {
				t.Fatalf("tripped on %q, want deadline (stats: %s)", be.Limit, be.Stats)
			}
			if elapsed > 2*timeout {
				t.Fatalf("cooperative cancellation took %v, want < %v", elapsed, 2*timeout)
			}
			t.Logf("aborted after %v with %s", elapsed.Round(time.Millisecond), be.Stats)
		})
	}
	waitNoLeaks(t, base)
}

// TestNodeAndMemoBudgetsCancelEarly verifies the non-clock axes: a node
// or memo cap aborts the build long before any deadline.
func TestNodeAndMemoBudgetsCancelEarly(t *testing.T) {
	storm := faultinject.WildcardStorm("storm", 200, 7)
	err := func() error {
		_, err := expcuts.NewCtx(context.Background(), storm, expcuts.Config{},
			&buildgov.Budget{Timeout: time.Minute, MaxNodes: 100})
		return err
	}()
	var be *buildgov.BudgetError
	if !errors.As(err, &be) || be.Limit != "nodes" {
		t.Fatalf("got %v, want a nodes trip", err)
	}
	if be.Stats.Nodes > 100+1 {
		t.Fatalf("charged %d nodes past a cap of 100", be.Stats.Nodes)
	}

	err = func() error {
		_, err := expcuts.NewCtx(context.Background(), storm, expcuts.Config{},
			&buildgov.Budget{Timeout: time.Minute, MaxMemoEntries: 50})
		return err
	}()
	if !errors.As(err, &be) || be.Limit != "memo-entries" {
		t.Fatalf("got %v, want a memo-entries trip", err)
	}
}

// TestHeapBudgetRefusesCrossProductTables verifies that hsm charges its
// cross-product tables before allocating them: a byte cap far below the
// table sizes trips "heap-bytes" instead of materializing the tables.
func TestHeapBudgetRefusesCrossProductTables(t *testing.T) {
	storm := faultinject.WildcardStorm("storm", 200, 7)
	_, err := hsm.NewCtx(context.Background(), storm, hsm.Config{},
		&buildgov.Budget{Timeout: time.Minute, MaxHeapBytes: 1 << 20})
	var be *buildgov.BudgetError
	if !errors.As(err, &be) || be.Limit != "heap-bytes" {
		t.Fatalf("got %v, want a heap-bytes trip", err)
	}
}

// TestHeapBudgetBoundsClassStorage verifies that the cross-producting
// builders charge their class storage row by row as it grows: under a
// 1 MiB byte cap a 10 000-rule build trips "heap-bytes" having allocated
// at most four times the cap (about 2.4 MiB for each). A sweep that
// reserved a slab for one class per segment before charging any row
// allocated 6.1 MiB in HSM.
func TestHeapBudgetBoundsClassStorage(t *testing.T) {
	rs, err := rulegen.Standard("ACL1_10K")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	for _, b := range []struct {
		name  string
		build func(*buildgov.Budget) error
	}{
		{"hsm", func(b *buildgov.Budget) error {
			_, err := hsm.NewCtx(context.Background(), rs, hsm.Config{}, b)
			return err
		}},
		{"rfc", func(b *buildgov.Budget) error {
			_, err := rfc.NewCtx(context.Background(), rs, rfc.Config{}, b)
			return err
		}},
	} {
		t.Run(b.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := b.build(&buildgov.Budget{Timeout: time.Minute, MaxHeapBytes: budget})
			runtime.ReadMemStats(&after)
			var be *buildgov.BudgetError
			if !errors.As(err, &be) || be.Limit != "heap-bytes" {
				t.Fatalf("got %v, want a heap-bytes trip", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*budget {
				t.Errorf("allocated %d bytes before tripping a %d-byte cap", alloc, budget)
			}
		})
	}
}

// TestContextCancellationAbortsBuilds proves plain ctx cancellation (no
// budget at all) is honored by every builder.
func TestContextCancellationAbortsBuilds(t *testing.T) {
	storm := faultinject.WildcardStorm("storm", 500, 7)
	base := runtime.NumGoroutine()
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := b.build(ctx, storm, nil)
			elapsed := time.Since(start)
			// Fast builders may legitimately finish, or refuse via their
			// own table caps; slow ones must surface the cancellation.
			if err == nil || !errors.Is(err, buildgov.ErrBudgetExceeded) {
				t.Logf("finished before cancellation mattered: err=%v", err)
				return
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget error %v does not wrap the context error", err)
			}
			if elapsed > 2*100*time.Millisecond {
				t.Fatalf("cancellation honored after %v, want < 200ms", elapsed)
			}
		})
	}
	waitNoLeaks(t, base)
}

func corpusPath(file string) string { return filepath.Join("testdata", file) }

func renderSet(rs *rules.RuleSet) []byte {
	var buf bytes.Buffer
	if err := rs.Write(&buf); err != nil {
		panic(fmt.Sprintf("rendering %s: %v", rs.Name, err))
	}
	return buf.Bytes()
}

// TestCorpusMatchesGenerators pins the checked-in corpus to its
// generators, so the soak job and local runs always exercise identical
// bytes. Run with -update to (re)write testdata/.
func TestCorpusMatchesGenerators(t *testing.T) {
	for _, c := range corpus {
		c := c
		t.Run(c.file, func(t *testing.T) {
			want := renderSet(c.gen())
			if *updateCorpus {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(corpusPath(c.file), want, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := os.ReadFile(corpusPath(c.file))
			if err != nil {
				t.Fatalf("reading corpus (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s no longer matches its generator; regenerate with -update", c.file)
			}
			// And the file must round-trip through the rule-set parser.
			rs, err := rules.Parse(c.file, bytes.NewReader(got))
			if err != nil {
				t.Fatalf("corpus does not parse: %v", err)
			}
			if rs.Len() != c.gen().Len() {
				t.Fatalf("parsed %d rules, generator produced %d", rs.Len(), c.gen().Len())
			}
		})
	}
}

// TestBudgetSoak replays every corpus file through every governed
// builder under a small budget: each build must either finish or trip
// the budget (or a builder's own structural cap) within twice the
// wall-clock allowance, and nothing may leak. CI runs this in a
// dedicated job (-run BudgetSoak).
func TestBudgetSoak(t *testing.T) {
	const timeout = 250 * time.Millisecond
	budget := &buildgov.Budget{
		Timeout:        timeout,
		MaxNodes:       50_000,
		MaxHeapBytes:   32 << 20,
		MaxMemoEntries: 50_000,
	}
	base := runtime.NumGoroutine()
	for _, c := range corpus {
		data, err := os.ReadFile(corpusPath(c.file))
		if err != nil {
			t.Fatalf("reading corpus (regenerate with -update): %v", err)
		}
		rs, err := rules.Parse(c.file, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("parsing %s: %v", c.file, err)
		}
		for _, b := range builders {
			b := b
			t.Run(c.file+"/"+b.name, func(t *testing.T) {
				start := time.Now()
				err := b.build(context.Background(), rs, budget)
				elapsed := time.Since(start)
				if err != nil && !errors.Is(err, buildgov.ErrBudgetExceeded) {
					// The builders' own structural caps (cross-product
					// table limits) are acceptable refusals; anything
					// else is a real failure.
					var be *buildgov.BudgetError
					if errors.As(err, &be) {
						t.Fatalf("BudgetError not wrapping sentinel: %v", err)
					}
					t.Logf("refused by builder's own cap: %v", err)
				}
				if elapsed > 2*timeout {
					t.Fatalf("build ran %v, want < %v", elapsed, 2*timeout)
				}
			})
		}
	}
	waitNoLeaks(t, base)
}
