package update

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/buildgov"
	"repro/internal/expcuts"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/rfc"
	"repro/internal/rmi"
	"repro/internal/rules"
)

// DefaultLadder is the canonical degradation ladder, best rung first:
//
//	expcuts → hicuts → hsm → linear
//
// ExpCuts is the paper's preferred structure (explicit depth bound, binth
// = 1) but has the largest build-time failure surface; HiCuts with binth
// leaves builds far smaller trees; HSM is field-independent, immune to
// decision-tree blow-up (its risk is cross-product table size, which the
// budget also bounds); and linear search is total — it cannot fail to
// build and is the very oracle candidates are validated against, so the
// ladder always lands on a servable generation. Every governed rung
// shares the same budget. A nil budget leaves rungs bounded only by the
// manager's BuildTimeout context.
func DefaultLadder(budget *buildgov.Budget) []Rung {
	rungs, err := LadderFromNames([]string{"expcuts", "hicuts", "hsm", "linear"}, budget)
	if err != nil {
		panic(err) // unreachable: the names above are all known
	}
	return rungs
}

// LadderFromNames builds a ladder from algorithm names (expcuts, hicuts,
// hypercuts, hsm, rfc, rmi, linear), all governed by the same budget. It
// is the one name → builder table: the CLIs' -ladder and -algo flags, the
// tenant registry and the rulescale experiment all resolve names here.
func LadderFromNames(names []string, budget *buildgov.Budget) ([]Rung, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("update: empty ladder")
	}
	rungs := make([]Rung, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		rung, err := rungFor(name, budget)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, rung)
	}
	return rungs, nil
}

func rungFor(name string, budget *buildgov.Budget) (Rung, error) {
	var build BuilderCtx
	switch name {
	case "expcuts":
		build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
			return expcuts.NewCtx(ctx, rs, expcuts.Config{}, budget)
		}
	case "hicuts":
		build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
			return hicuts.NewCtx(ctx, rs, hicuts.Config{}, budget)
		}
	case "hypercuts":
		build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
			return hypercuts.NewCtx(ctx, rs, hypercuts.Config{}, budget)
		}
	case "hsm":
		build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
			return hsm.NewCtx(ctx, rs, hsm.Config{}, budget)
		}
	case "rfc":
		build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
			return rfc.NewCtx(ctx, rs, rfc.Config{}, budget)
		}
	case "rmi":
		// The learned range index (NuevoMatch-style RQ-RMI). Its own
		// remainder chain reuses the same budget with ladder semantics,
		// so one budget governs the whole composite build.
		build = func(ctx context.Context, rs *rules.RuleSet) (Classifier, error) {
			return rmi.NewCtx(ctx, rs, rmi.Config{}, budget)
		}
	case "linear":
		// The total rung: ungoverned on purpose — linear.New performs
		// one O(rules) slab allocation and cannot blow up or hang.
		build = func(_ context.Context, rs *rules.RuleSet) (Classifier, error) {
			return linear.New(rs), nil
		}
	default:
		return Rung{}, fmt.Errorf("update: unknown algorithm %q (expcuts, hicuts, hypercuts, hsm, rfc, rmi, linear)", name)
	}
	return Rung{Name: name, Build: build}, nil
}
