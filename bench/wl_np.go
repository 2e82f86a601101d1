package main

import (
	"fmt"
	"time"

	"repro/internal/expcuts"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/npsim"
	"repro/internal/nptrace"
	"repro/internal/rfc"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

const (
	npHeaders = 2000
	npPackets = 25000
)

// programmer is a classifier that can describe a lookup as an access
// program for the NP simulator.
type programmer interface {
	Program(h rules.Header) nptrace.Program
}

// npEnv replays the access programs of CR04's lookups on the simulated
// network processor. Simulated numbers are exact; host numbers are not.
type npEnv struct {
	rs      *rules.RuleSet
	tree    *expcuts.Tree
	hicuts  *hicuts.Tree
	hsm     *hsm.Classifier
	headers []rules.Header
	seed    int64
	progs   []nptrace.Program // expcuts
	want    []int32
}

func setupNP(p presets, seed int64) (env, error) {
	rs, err := rulegen.Standard(p.cr)
	if err != nil {
		return nil, err
	}
	e := &npEnv{rs: rs, seed: seed}
	if e.tree, err = expcuts.New(rs, expcuts.DefaultConfig()); err != nil {
		return nil, err
	}
	if e.headers, err = genFlows(rs, npHeaders, seed); err != nil {
		return nil, err
	}
	if e.hicuts, err = hicuts.New(rs, hicuts.DefaultConfig()); err != nil {
		return nil, err
	}
	if e.hsm, err = hsm.New(rs, hsm.DefaultConfig()); err != nil {
		return nil, err
	}
	e.progs = trace(e.tree, e.headers)
	return e, nil
}

func trace(p programmer, hs []rules.Header) []nptrace.Program {
	progs := make([]nptrace.Program, len(hs))
	for i, h := range hs {
		progs[i] = p.Program(h)
	}
	return progs
}

func (e *npEnv) memBytes() int { return e.tree.MemoryBytes() }

func (e *npEnv) prepare() error {
	e.want = oracle(e.rs, e.headers, nil)
	return nil
}

// wrongResults counts programs whose recorded verdict differs from linear
// search's.
func (e *npEnv) wrongResults(progs []nptrace.Program) int64 {
	var wrong int64
	for i, p := range progs {
		if int32(p.Result) != e.want[i] {
			wrong++
		}
	}
	return wrong
}

func gbps(r npsim.Result) float64 { return r.ThroughputMbps / 1e3 }

func (e *npEnv) run(o runOpts) (outcome, error) {
	cfg := npsim.DefaultConfig()
	var out outcome
	var first npsim.Result
	var replays int64
	var hostNs []float64
	start := time.Now()
	cpu0 := cpuTime()
	// Each iteration is the whole traced path: walk the image into access
	// programs, then replay them. The window is host time; what is
	// reported as throughput and latency is simulated time.
	for time.Since(start) < o.timed {
		var t0 int64
		if o.rec != nil {
			t0 = o.rec.now()
		}
		it := time.Now()
		progs := trace(e.tree, e.headers)
		res, err := npsim.Run(cfg, progs, npPackets)
		if err != nil {
			return out, err
		}
		d := time.Since(it)
		if o.rec != nil {
			o.rec.leaf(0, "npsim.run", t0, t0+int64(d))
		}
		hostNs = append(hostNs, float64(d))
		out.attempted += int64(len(progs)) + 1
		out.failed += e.wrongResults(progs)
		if replays == 0 {
			first = res
		} else if res != first {
			out.failed++ // the simulator must be deterministic
		}
		replays++
	}
	simulated := replays * npPackets
	clockMHz := cfg.ClockMHz
	out.rate = rates{perSec: first.PPS, units: simulated, // simulated, and exact
		cpuNsPerUnit: float64(cpuTime()-cpu0) / float64(simulated)}
	p99 := float64(first.P99PacketCycles) / clockMHz
	out.lat = latency{p50us: float64(first.P50PacketCycles) / clockMHz, tailUs: p99, p99us: p99,
		tailPct: o.tailPct, samples: first.Packets, beyondP99: first.Packets / 100}
	hostKpps := float64(simulated) / time.Since(start).Seconds() / 1e3
	out.layer = map[string]float64{
		"sim_gbps":               gbps(first),
		"npsim.me_utilization":   first.MEUtilization,
		"npsim.p99_pkt_cycles":   float64(first.P99PacketCycles),
		"npsim.host_kpps":        hostKpps,
		"npsim.channel_util_max": 0,
	}
	for _, u := range first.ChannelUtilization {
		out.layer["npsim.channel_util_max"] = max(out.layer["npsim.channel_util_max"], u)
	}
	out.notes = []string{
		fmt.Sprintf("SIMULATED: mpps, rtt_p50_us and rtt_tail_us are npsim's packet rate and per-packet latency at %.0f MHz (%.4f Gbps at %d-byte packets); they repeat exactly for a seed",
			clockMHz, gbps(first), cfg.PacketBytes),
		fmt.Sprintf("HOST: cpu_ns_per_pkt is the simulator's own cost per simulated packet; %d replays of %d packets, %.1f simulated kpps per host second",
			replays, npPackets, hostKpps),
	}
	return out, nil
}

// rung is one classifier the serving ladder can fall back to, measured
// on CR04 as a ledger row.
type rung struct {
	name  string
	build func(rs *rules.RuleSet) (sizedClassifier, error)
}

type sizedClassifier interface {
	batchClassifier
	MemoryBytes() int
}

func rungOf[T sizedClassifier](name string, build func(rs *rules.RuleSet) (T, error)) rung {
	return rung{name, func(rs *rules.RuleSet) (sizedClassifier, error) {
		c, err := build(rs)
		if err != nil {
			return nil, err
		}
		return c, nil
	}}
}

var rungs = []rung{
	rungOf("hsm", func(rs *rules.RuleSet) (*hsm.Classifier, error) { return hsm.New(rs, hsm.DefaultConfig()) }),
	rungOf("hicuts", func(rs *rules.RuleSet) (*hicuts.Tree, error) { return hicuts.New(rs, hicuts.DefaultConfig()) }),
	rungOf("hypercuts", func(rs *rules.RuleSet) (*hypercuts.Tree, error) { return hypercuts.New(rs, hypercuts.DefaultConfig()) }),
	rungOf("rfc", func(rs *rules.RuleSet) (*rfc.Classifier, error) { return rfc.New(rs, rfc.DefaultConfig()) }),
	rungOf("linear", func(rs *rules.RuleSet) (*linear.Classifier, error) { return linear.New(rs), nil }),
}

func (e *npEnv) ledger(lc *ledgerCtx) error {
	var accesses, words int
	var compute uint64
	for i := range e.progs {
		accesses += e.progs[i].Accesses()
		words += e.progs[i].Words()
		compute += e.progs[i].ComputeCycles()
	}
	n := float64(len(e.progs))
	lc.m["nptrace.accesses_per_pkt"] = float64(accesses) / n
	lc.m["nptrace.words_per_pkt"] = float64(words) / n
	lc.m["nptrace.compute_cycles_per_pkt"] = float64(compute) / n

	for name, p := range map[string]programmer{"hicuts": e.hicuts, "hsm": e.hsm} {
		progs := trace(p, e.headers)
		if wrong := e.wrongResults(progs); wrong > 0 {
			return fmt.Errorf("%s: %d of %d access programs end on the wrong rule", name, wrong, len(progs))
		}
		res, err := npsim.Run(npsim.DefaultConfig(), progs, npPackets)
		if err != nil {
			return err
		}
		lc.m["npsim."+name+"_gbps"] = gbps(res)
	}

	// The rungs serving degrades to, natively, on a trace long enough to time.
	hs, err := genFlows(e.rs, 1<<16, e.seed)
	if err != nil {
		return err
	}
	out := make([]int, len(hs))
	for _, r := range rungs {
		start := time.Now()
		cl, err := r.build(e.rs)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		lc.m[r.name+".build_s"] = time.Since(start).Seconds()
		lc.m[r.name+".mem_bytes"] = float64(cl.MemoryBytes())
		reps, pkts := ledgerReps, hs
		if r.name == "linear" {
			reps, pkts = 1, hs[:1<<13] // a thousand times slower than the rest
		}
		lc.m[r.name+".classify_ns_per_pkt"] = lc.timeIt("ledger."+r.name+".classify_batch", reps, len(pkts), func() {
			inBatches(pkts, out, cl.ClassifyBatch)
		})
	}
	return nil
}
