package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/expcuts"
	"repro/internal/linear"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/tss"
	"repro/internal/update"
)

const (
	churnOpsPerSec  = 2000
	churnPoolSize   = 4096
	churnCheckSize  = 1 << 14 // headers verified against linear over the final snapshot
	churnBatches    = 1 << 12 // the op stream; balanced batches make it safe to cycle
	applySpan       = "update.apply_delta"
	compactSpan     = "update.compact"
	quiesceTimeout  = 60 * time.Second
	ledgerDeltaOps  = 128
	ledgerFoldedOps = 248 // just under update.DefaultCompactThreshold, so the timed Compact is ours
)

// churnEnv is mem_uniform's traffic served through update.Manager while an
// updater goroutine edits the rule list.
type churnEnv struct {
	rs      *rules.RuleSet
	mgr     *update.Manager
	flows   []rules.Header
	batches [][]update.Op
	next    int // the batch nextBatch hands out
	mem     int
}

var sink int32 // keeps a measured call's result alive

func expcutsBuilder(rs *rules.RuleSet) (update.Classifier, error) {
	return expcuts.New(rs, expcuts.DefaultConfig())
}

func setupChurn(p presets, seed int64) (env, error) {
	rs, err := rulegen.Standard(p.cr)
	if err != nil {
		return nil, err
	}
	mgr, err := update.NewManagerConfig(rs, expcutsBuilder, update.Config{})
	if err != nil {
		return nil, err
	}
	e := &churnEnv{rs: rs, mgr: mgr, mem: mgr.MemoryBytes()}
	if e.flows, err = genFlows(rs, p.flows, seed); err != nil {
		return nil, err
	}
	pool, err := genPool(churnPoolSize, seed)
	if err != nil {
		return nil, err
	}
	e.batches = genOps(rs.Len(), pool, churnBatches, seed)
	return e, nil
}

// nextBatch walks the op stream, cycling: every batch leaves the list the
// size it found it, so any batch is valid after any other.
func (e *churnEnv) nextBatch() []update.Op {
	ops := e.batches[e.next]
	e.next = (e.next + 1) % len(e.batches)
	return ops
}

func (e *churnEnv) prepare() error { return nil } // the oracle runs over the final snapshot
func (e *churnEnv) memBytes() int  { return e.mem }

func (e *churnEnv) run(o runOpts) (outcome, error) {
	before := e.mgr.Health()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var applyNs []float64
	var applies, applyErrs int64
	var peakMem int
	var firstErr error
	wg.Add(1)
	go func() {
		// The updater: one batch every opsPerBatch/churnOpsPerSec seconds,
		// scheduled by due time, never skipping one.
		defer wg.Done()
		interval := time.Second * opsPerBatch / churnOpsPerSec
		start := time.Now()
		for i := 0; ; i++ {
			due := time.Duration(i) * interval
			select {
			case <-stop:
				return
			case <-time.After(max(0, due-time.Since(start))):
			}
			t0 := time.Now()
			err := e.mgr.ApplyDelta(e.nextBatch())
			d := time.Since(t0)
			if o.rec != nil {
				at := int64(t0.Sub(o.rec.base))
				o.rec.leaf(0, applySpan, at, at+int64(d))
			}
			applies++
			if err != nil {
				applyErrs++
				if firstErr == nil {
					firstErr = err
				}
			}
			if due >= o.warm {
				applyNs = append(applyNs, float64(d))
			}
			if i%32 == 0 {
				peakMem = max(peakMem, e.mgr.MemoryBytes())
			}
		}
	}()
	serve := engineRun{algo: "update", cl: e.mgr, cfg: engineConfig(), hs: e.flows}
	out, err := serve.run(o)
	close(stop)
	wg.Wait()
	if err != nil {
		return out, err
	}
	if firstErr != nil {
		out.notes = append(out.notes, fmt.Sprintf("first ApplyDelta error: %v", firstErr))
	}
	if !e.mgr.Quiesce(quiesceTimeout) {
		return out, fmt.Errorf("update.Manager did not quiesce within %v", quiesceTimeout)
	}

	// Verify the combined view the run ended on against linear search over
	// the same rule list.
	snapshot, _ := e.mgr.Snapshot()
	lin := linear.New(rules.NewRuleSet("snapshot", snapshot))
	hs := e.flows[:churnCheckSize]
	got, want := make([]int, len(hs)), make([]int, len(hs))
	e.mgr.ClassifyBatch(hs, got)
	lin.ClassifyBatch(hs, want)
	var mismatches int64
	for i := range got {
		if got[i] != want[i] {
			mismatches++
		}
	}
	out.attempted += applies + int64(len(hs))
	out.failed += applyErrs + mismatches

	// On this workload the request a caller waits for is the ApplyDelta call.
	out.lat = summarize(applyNs, o.tailPct)
	out.notes = append(out.notes,
		fmt.Sprintf("rtt is the time of one ApplyDelta call of %d ops; %d calls at %d ops/s", opsPerBatch, applies, churnOpsPerSec),
		fmt.Sprintf("verified %d headers against linear over the %d-rule snapshot: %d mismatches", len(hs), len(snapshot), mismatches))
	after := e.mgr.Health()
	out.layer["update_apply_p50_us"] = out.lat.p50us
	out.layer["update.apply_p99_us"] = out.lat.p99us
	out.layer["update.compactions"] = float64(after.Compactions - before.Compactions)
	out.layer["update.mask_scans"] = float64(after.MaskScans - before.MaskScans)
	out.layer["update.mem_peak_mb"] = float64(peakMem) / 1e6
	return out, nil
}

func (e *churnEnv) ledger(lc *ledgerCtx) error {
	lc.m["engine.self_frac"] = engineSelfFrac(lc.spans)
	rec := lc.opts.rec
	hs := e.flows[:1<<16]
	out := make([]int, len(hs))
	classify := func(name string) float64 {
		return lc.timeIt("ledger."+name, ledgerReps, len(hs), func() { inBatches(hs, out, e.mgr.ClassifyBatch) })
	}
	apply := func(ops int) error {
		for ; ops > 0; ops -= opsPerBatch {
			if err := e.mgr.ApplyDelta(e.nextBatch()); err != nil {
				return err
			}
		}
		return nil
	}
	timed := func(name string, f func() error) (time.Duration, error) {
		t0 := rec.now()
		start := time.Now()
		err := f()
		d := time.Since(start)
		rec.leaf(0, name, t0, t0+int64(d))
		return d, err
	}

	// Fold whatever the traced window left, so "clean" means a bare tree.
	if err := e.mgr.Compact(); err != nil {
		return err
	}
	lc.m["update.classify_clean_ns_per_pkt"] = classify("update.classify_clean")
	if err := apply(ledgerDeltaOps); err != nil {
		return err
	}
	lc.m["update.classify_delta_ns_per_pkt"] = classify("update.classify_delta")
	if err := apply(ledgerFoldedOps - ledgerDeltaOps); err != nil {
		return err
	}
	d, err := timed(compactSpan, e.mgr.Compact)
	if err != nil {
		return err
	}
	lc.m["update.compact_s"] = d.Seconds()
	if d, err = timed("update.apply", func() error { return e.mgr.Apply(e.nextBatch()) }); err != nil {
		return err
	}
	lc.m["update.full_apply_s"] = d.Seconds()
	if d, err = timed("update.rollback", e.mgr.Rollback); err != nil {
		return err
	}
	lc.m["update.rollback_us"] = float64(d) / 1e3

	// The tuple-space layer on its own: a table holding every CR04 rule,
	// and a delta of 64 ops over the preset.
	table := tss.NewTable()
	for i, r := range e.rs.Rules {
		table.Insert(r, int32(i))
	}
	lc.m["tss.lookup_ns_per_pkt"] = lc.timeIt("ledger.tss.lookup", ledgerReps, len(hs), func() {
		for _, h := range hs {
			sink += table.Lookup(h)
		}
	})
	delta := tss.NewDelta(e.rs.Rules, nil)
	start := time.Now()
	const tssOps = 64
	for b := 0; b < tssOps/opsPerBatch; b++ {
		ops := make([]tss.Op, opsPerBatch)
		for i, op := range e.batches[b] {
			ops[i] = tss.Op{Insert: op.Insert, Rule: op.Rule, Pos: op.Pos}
		}
		if delta, err = delta.Apply(ops); err != nil {
			return err
		}
	}
	lc.m["tss.apply_us_per_op"] = float64(time.Since(start)) / 1e3 / tssOps
	base := make([]int, len(hs))
	linear.New(e.rs).ClassifyBatch(hs[:churnCheckSize], base[:churnCheckSize])
	lc.m["tss.resolve_ns_per_pkt"] = lc.timeIt("ledger.tss.resolve_batch", ledgerReps, churnCheckSize, func() {
		copy(out, base[:churnCheckSize])
		delta.ResolveBatch(hs[:churnCheckSize], out[:churnCheckSize])
	})
	return nil
}
