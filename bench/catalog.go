package main

import (
	"bytes"
	"encoding/json"
	"time"
)

// The catalog is the single source of the benchmark's names: the seven
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer ledger. BENCHMARK.json at the repo root is manifest() written
// out (a test keeps the two equal): the four gated workloads and the
// ledger rows their traced runs fill.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// gated workloads are the ones BENCHMARK.json lists and the driver
	// judges later changes by. The driver's time limit covers all its runs
	// of all listed workloads, so every workload listed shortens every
	// window; four leave each a window long enough to repeat on a shared
	// host. The other three run by hand, with the same command.
	gated bool
	// tailPct is the percentile rtt_tail_us reports on this workload: 90
	// wherever the harness holds the samples, 99 on np_cr04, where npsim
	// publishes p50 and p99 only and both are exact.
	tailPct float64
	// setupReps is how many times set-up runs; setup_s is the quickest.
	setupReps int
	// blockLen is the timed window of one block of an untraced run when a
	// second (defaultBlockLen) cannot hold a cycle of what it measures.
	blockLen time.Duration
	// hostScaled workloads are CPU-bound from end to end; their timings
	// are reported at the reference host's speed (see calib.go).
	hostScaled bool
	setup      func(p presets, seed int64) (env, error)
}

// presets sizes a set-up. measured is what every run uses; the -short
// smoke test swaps in the smallest rule set of each family and a quarter
// of the flows so that it can afford all seven workloads.
type presets struct {
	cr    string // core-router preset, served by expcuts
	acl   string // ACL preset, served by rmi
	flows int    // distinct flows per in-memory workload; at least 1<<16
}

var measured = presets{cr: "CR04", acl: "ACL1_100K", flows: 1 << 18}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	runSeconds      = 16 // the timed windows of a run: 16 blocks of a second on the gated workloads
	defaultBlockLen = time.Second
	defaultSeed     = 1 // seed 2 is held out: claims must also hold on it
)

var workloads = []workloadDef{
	{Name: "mem_uniform", gated: true, hostScaled: true, tailPct: 90, setupReps: 2, setup: setupMemUniform,
		Why: "CR04 on expcuts through engine.RunContext, cache off, 2^18 distinct flows cycled: the classify walk and engine dispatch do all the work, sockets none"},
	{Name: "mem_zipf_cache", gated: true, hostScaled: true, tailPct: 90, setupReps: 2, setup: setupMemZipf,
		Why: "same tree, 4096-flow cache per shard, Zipf(1.1) over the same flows: flowcache does most of the work and the walk little; a walk change should barely move it"},
	{Name: "mem_acl100k", hostScaled: true, tailPct: 90, setupReps: 3, setup: setupMemACL,
		Why: "rmi on ACL1_100K, cache off: the learned rung on a 50x larger rule set; expcuts is bypassed, so an expcuts change predicts no movement here"},
	{Name: "udp_open", gated: true, tailPct: 90, setupReps: 2, setup: setupUDPOpen,
		Why: "iofront.Serve over loopback, open loop at a fixed 20000 requests/s timed from the due instant: socket read, pcapio, wire, flush timer and reply do the work; the latency regime"},
	{Name: "udp_closed", gated: true, tailPct: 90, setupReps: 2, setup: setupUDPClosed,
		Why: "same server, closed loop with 256 requests outstanding: the same layers used for throughput, so a batching change that holds packets longer gains here and loses on udp_open"},
	{Name: "churn", hostScaled: true, blockLen: 8 * time.Second, tailPct: 90, setupReps: 2, setup: setupChurn,
		Why: "mem_uniform traffic through update.Manager while an updater applies 8-op deltas at 2000 ops/s with auto-compaction: writes beside reads compete for the same cores"},
	{Name: "np_cr04", tailPct: 99, setupReps: 2, setup: setupNP,
		Why: "access programs of 2000 headers on CR04 replayed by npsim: the paper's own metric in simulated time, through the traced walk instead of the native one"},
}

// Every workload reports every end-to-end metric; README.md says what
// each means on each workload. The timing bounds are the widest the
// driver's contract allows, not the issue's 8-15 %: the driver refuses a
// benchmark whose own runs spread by more than a bound or whose second set
// of runs is worse than its first by more than a bound, and it refused
// this one once, on a host where unchanged code spread by 22-30 %. See
// README.md, "Steadiness".
var endToEnd = []e2eDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mpps", Unit: "Mpps", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_pkt", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "rtt_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rtt_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.02},
}

// The per-layer ledger. A traced run of a workload fills in the layers
// that workload exercises and reports 0 for the rest. perLayer is what
// BENCHMARK.json lists: the rows some gated workload's traced run fills.
var perLayer = []layerDef{
	// The issue's end-to-end names that cannot be bounded under the
	// driver's contract (see README.md): measured by the traced run.
	// update_apply_p50_us and sim_gbps are in handLayer.
	{"fail_frac", "ratio", "lower"},
	{"rtt_p99_us", "us", "lower"},
	{"udp_kpps", "kpps", "higher"},

	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},

	{"host.udp_echo_rtt_p50_us", "us", "lower"},
	{"host.udp_echo_kpps", "kpps", "higher"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.achieved_rate_frac", "ratio", "higher"},
	{"loadgen.over_5ms_frac", "ratio", "lower"},
	{"loadgen.invalid_windows", "count", "lower"},

	{"wire.parse_ns_per_pkt", "ns", "lower"},
	{"wire.parse_allocs_per_pkt", "count", "lower"},
	{"pcapio.segment_append_ns_per_pkt", "ns", "lower"},
	{"pcapio.codec_ns_per_pkt", "ns", "lower"},
	{"pcapio.allocs_per_pkt", "count", "lower"},

	{"iofront.stub_kpps", "kpps", "higher"},
	{"iofront.stub_rtt_p50_us", "us", "lower"},
	{"iofront.batch_fill_mean", "count", "higher"},
	{"iofront.classify_span_p50_us", "us", "lower"},
	{"iofront.unattributed_us", "us", "lower"},
	{"iofront.reply_frac", "ratio", "higher"},
	{"iofront.decode_errors", "count", "lower"},

	{"engine.overhead_ns_per_pkt", "ns", "lower"},
	{"engine.batch1_ns_per_pkt", "ns", "lower"},
	{"engine.pool_ns_per_pkt", "ns", "lower"},
	{"engine.stream_ns_per_pkt", "ns", "lower"},
	{"engine.tenants_ns_per_pkt", "ns", "lower"},
	{"engine.shard_busy_ns_per_pkt", "ns", "lower"},
	{"engine.shard_imbalance", "ratio", "lower"},
	{"engine.self_frac", "ratio", "lower"},
	{"engine.max_reorder", "count", "lower"},
	{"engine.allocs_per_pkt", "count", "lower"},
	{"obs.metrics_on_overhead_frac", "ratio", "lower"},

	{"flowcache.hit_rate", "ratio", "higher"},
	{"flowcache.hit_ns_per_pkt", "ns", "lower"},
	{"flowcache.miss_ns_per_pkt", "ns", "lower"},
	{"flowcache.epoch_advance_ns", "ns", "lower"},

	{"expcuts.classify_ns_per_pkt", "ns", "lower"},
	{"expcuts.pipelined_ns_per_pkt", "ns", "lower"},
	{"expcuts.single_ns_per_pkt", "ns", "lower"},
	{"expcuts.build_s", "s", "lower"},
	{"expcuts.mem_bytes", "B", "lower"},
	{"expcuts.nodes", "count", "lower"},
	{"expcuts.levels_mean", "count", "lower"},
}

// handLayer is the rest of the ledger: the rows only the traced runs of
// the three workloads run by hand fill (mem_acl100k, churn, np_cr04).
var handLayer = []layerDef{
	{"update_apply_p50_us", "us", "lower"},
	{"sim_gbps", "Gbps", "higher"},

	{"rmi.classify_ns_per_pkt", "ns", "lower"},
	{"rmi.build_s", "s", "lower"},
	{"rmi.mem_bytes", "B", "lower"},
	{"rmi.max_err", "count", "lower"},
	{"rmi.remainder_rules", "count", "lower"},

	{"hsm.classify_ns_per_pkt", "ns", "lower"},
	{"hsm.build_s", "s", "lower"},
	{"hsm.mem_bytes", "B", "lower"},
	{"hicuts.classify_ns_per_pkt", "ns", "lower"},
	{"hicuts.build_s", "s", "lower"},
	{"hicuts.mem_bytes", "B", "lower"},
	{"hypercuts.classify_ns_per_pkt", "ns", "lower"},
	{"hypercuts.build_s", "s", "lower"},
	{"hypercuts.mem_bytes", "B", "lower"},
	{"rfc.classify_ns_per_pkt", "ns", "lower"},
	{"rfc.build_s", "s", "lower"},
	{"rfc.mem_bytes", "B", "lower"},
	{"linear.classify_ns_per_pkt", "ns", "lower"},
	{"linear.build_s", "s", "lower"},
	{"linear.mem_bytes", "B", "lower"},

	{"tss.lookup_ns_per_pkt", "ns", "lower"},
	{"tss.resolve_ns_per_pkt", "ns", "lower"},
	{"tss.apply_us_per_op", "us", "lower"},
	{"update.classify_clean_ns_per_pkt", "ns", "lower"},
	{"update.classify_delta_ns_per_pkt", "ns", "lower"},
	{"update.apply_p99_us", "us", "lower"},
	{"update.compact_s", "s", "lower"},
	{"update.full_apply_s", "s", "lower"},
	{"update.rollback_us", "us", "lower"},
	{"update.compactions", "count", "higher"},
	{"update.mask_scans", "count", "lower"},
	{"update.mem_peak_mb", "MB", "lower"},

	{"nptrace.accesses_per_pkt", "count", "lower"},
	{"nptrace.words_per_pkt", "count", "lower"},
	{"nptrace.compute_cycles_per_pkt", "cycles", "lower"},
	{"npsim.hicuts_gbps", "Gbps", "higher"},
	{"npsim.hsm_gbps", "Gbps", "higher"},
	{"npsim.me_utilization", "ratio", "higher"},
	{"npsim.channel_util_max", "ratio", "lower"},
	{"npsim.p99_pkt_cycles", "cycles", "lower"},
	{"npsim.host_kpps", "kpps", "higher"},
}

// ledgerOf is the ledger a traced run of w prints.
func ledgerOf(w *workloadDef) []layerDef {
	if w.gated {
		return perLayer
	}
	return append(append([]layerDef(nil), perLayer...), handLayer...)
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func gated() []workloadDef {
	var g []workloadDef
	for _, w := range workloads {
		if w.gated {
			g = append(g, w)
		}
	}
	return g
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  gated(),
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // unreachable: the document is plain strings and numbers
	}
	return buf.Bytes()
}
