package main

import (
	"testing"

	"repro/internal/rulegen"
	"repro/internal/rules"
)

func TestSameSeedSameInputs(t *testing.T) {
	rs, err := rulegen.Standard(measured.cr)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) string {
		d, err := inputsDigest(rs, 1<<12, 1<<12, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(defaultSeed), digest(defaultSeed), digest(defaultSeed+1)
	if a != b {
		t.Errorf("seed %d gave two different input streams: %s, %s", defaultSeed, a, b)
	}
	if a == c {
		t.Errorf("seeds %d and %d gave the same input stream", defaultSeed, defaultSeed+1)
	}
}

func TestFlowsAreDistinctAndOpsStayValid(t *testing.T) {
	rs, err := rulegen.Standard(measured.cr)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := genFlows(rs, 1<<14, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[rules.Header]bool, len(flows))
	for _, h := range flows {
		if seen[h] {
			t.Fatalf("flow %v generated twice", h)
		}
		seen[h] = true
	}
	pool, err := genPool(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	live := rs.Len()
	for _, batch := range genOps(live, pool, 200, 3) {
		inserts := 0
		for _, op := range batch {
			if op.Insert {
				if op.Pos < 0 || op.Pos > live {
					t.Fatalf("insert at %d with %d live rules", op.Pos, live)
				}
				live++
				inserts++
			} else {
				if op.Pos < 0 || op.Pos >= live {
					t.Fatalf("delete at %d with %d live rules", op.Pos, live)
				}
				live--
			}
		}
		if inserts != opsPerBatch/2 || live != rs.Len() {
			t.Fatalf("a batch must be half inserts and leave the list its size: %d inserts, %d live", inserts, live)
		}
	}
}
