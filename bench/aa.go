package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA answers "is the benchmark steadier than its own bounds?": for
// each workload it runs N pairs of the same binary on the same seed, side
// A and side B alternating which goes first, and prints per metric the two
// medians, the inter-quartile spread as a share of the median, and whether
// B is worse than A by more than the metric's bound. One seed, because that
// is how a later PR is compared with its parent: what shows here is
// run-to-run noise alone. Every run is a fresh process, as the driver's are.
func runAA(selected []workloadDef, pairs int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("aa: %w", err)
	}
	allInside := true
	for _, w := range selected {
		sides := [2]map[string][]float64{{}, {}}
		for p := 0; p < pairs; p++ {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2
				rep, err := runChild(exe, w.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("aa: %s pair %d: %w", w.Name, p, err)
				}
				if !rep.Correct {
					return fmt.Errorf("aa: %s pair %d: %d of %d operations failed", w.Name, p, rep.Failed, rep.Attempted)
				}
				for name, m := range rep.Metrics {
					sides[side][name] = append(sides[side][name], m.Value)
				}
			}
		}
		fmt.Printf("== %s  A/A over %d pairs, seed %d\n", w.Name, pairs, seed)
		fmt.Printf("  %-16s %14s %14s %9s %9s %7s  %s\n", "metric", "median A", "median B", "iqr A", "iqr B", "bound", "B vs A")
		for _, d := range endToEnd {
			a, b := sides[0][d.Name], sides[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			// The driver's rule: medians within the bound, and every spread
			// but set-up's within it too.
			verdict := "inside"
			if worse > d.Bound || (d.Name != "setup_s" && max(spread(a), spread(b)) > d.Bound) {
				verdict = "OUTSIDE"
				allInside = false
			}
			fmt.Printf("  %-16s %14.6g %14.6g %8.2f%% %8.2f%% %6.0f%%  %+.2f%% %s\n",
				d.Name, ma, mb, 100*spread(a), 100*spread(b), 100*d.Bound, 100*worse, verdict)
		}
	}
	if !allInside {
		return fmt.Errorf("aa: some metric moved or spread by more than its bound with no change to the code")
	}
	return nil
}

func runChild(exe, workload string, seed int64, seconds float64) (report, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("last line of output is not a report: %w", err)
	}
	return rep, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// computes them — the driver's steadiness test.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
