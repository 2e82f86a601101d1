package update

import (
	"repro/internal/obs"
)

// Collect is the obs.Collector for the manager: it snapshots Health on
// the scrape path and emits it as pc_update_* series. Register it on a
// registry with Register; the serving path is untouched — everything
// here reads the same atomics Health does.
func (m *Manager) Collect(emit func(obs.Sample)) {
	h := m.Health()
	gauge := func(name, help string, v float64) {
		emit(obs.Sample{Name: name, Help: help, Type: "gauge", Value: v})
	}
	counter := func(name, help string, v uint64) {
		emit(obs.Sample{Name: name, Help: help, Type: "counter", Value: float64(v)})
	}
	gauge("pc_update_generation", "Live rule-set generation number.", float64(h.Generation))
	gauge("pc_update_rules", "Live generation rule count.", float64(h.Rules))
	gauge("pc_update_memory_bytes", "Live classifier memory footprint.", float64(h.MemoryBytes))
	gauge("pc_update_degradation_level", "Live ladder rung (0 = preferred builder).", float64(h.DegradationLevel))
	counter("pc_update_failed_builds_total", "Rung builds that returned an error.", h.FailedBuilds)
	counter("pc_update_failed_validations_total", "Candidates rejected by shadow validation.", h.FailedValidations)
	counter("pc_update_rollbacks_total", "Successful rollbacks.", h.Rollbacks)
	counter("pc_update_budget_trips_total", "Builds aborted by a buildgov budget.", h.BudgetTrips)

	// Delta layer / compaction series. Gauges reflect the live delta;
	// counters are lifetime totals.
	gauge("pc_update_delta_ops", "Edit ops absorbed by the live delta layer since its tree base.", float64(h.DeltaOps))
	gauge("pc_update_delta_rules", "Live delta-inserted rules in the tuple-space side table.", float64(h.DeltaInserted))
	gauge("pc_update_delta_dead", "Tree rules masked by delta deletes.", float64(h.DeltaDead))
	gauge("pc_update_delta_age_seconds", "Age of the oldest unfolded delta.", h.DeltaAgeSeconds)
	compacting := 0.0
	if h.Compacting {
		compacting = 1
	}
	gauge("pc_update_compacting", "1 while a background compaction is in flight.", compacting)
	counter("pc_update_delta_applies_total", "Successful ApplyDelta batches.", h.DeltaApplies)
	counter("pc_update_mask_scans_total", "Lookups that fell back to scanning tree survivors past a masked match.", h.MaskScans)
	counter("pc_update_compactions_total", "Deltas folded into fresh builds.", h.Compactions)
	counter("pc_update_compaction_aborts_total", "Compactions discarded because the base generation changed mid-build.", h.CompactionAborts)
	counter("pc_update_compaction_failures_total", "Compactions whose build or validation failed.", h.CompactionFailures)
	applyNs := m.deltaApplyNs.Snapshot()
	emit(obs.Sample{Name: "pc_update_delta_apply_ns",
		Help: "ApplyDelta latency (ns): lock to publish.", Type: "histogram", Hist: &applyNs})

	for _, b := range h.Breakers {
		labels := []obs.Label{{Key: "rung", Value: b.Rung}}
		open := 0.0
		if b.State == "open" {
			open = 1
		}
		emit(obs.Sample{Name: "pc_update_breaker_open",
			Help: "1 when the rung's circuit breaker is open.", Type: "gauge",
			Labels: labels, Value: open})
		emit(obs.Sample{Name: "pc_update_breaker_failures",
			Help: "Current consecutive-failure streak per rung.", Type: "gauge",
			Labels: labels, Value: float64(b.ConsecutiveFailures)})
	}
}

// Register registers the manager's collector on reg. Nil-safe on both
// sides.
func (m *Manager) Register(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.Register(m.Collect)
}
