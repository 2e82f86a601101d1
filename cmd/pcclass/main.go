// Command pcclass classifies a packet trace against a rule set with a
// chosen algorithm and reports per-action counts, agreement with the
// linear-search oracle, and the classifier's memory/access statistics.
//
// Usage:
//
//	pcclass -rules cr04.rules -trace cr04.trace -algo expcuts
//	pcclass -ruleset CR04 -gen 10000 -algo hsm -verify
//	pcclass -ruleset FW01 -gen 100000 -shards 4 -timeout 2s -overload shed
//
// With -shards or -flowcache the trace runs through the hardened parallel
// engine, served on flow-affinity shards (packets of a flow stay on one
// shard, each with a private flow cache): classifier panics are contained
// per-packet, -timeout bounds the whole run, and -overload picks
// back-pressure vs. tail-drop under load.
//
// Builds are resource-governed: -build-timeout and -build-maxnodes set a
// buildgov budget, so a hostile rule set aborts with a typed error
// instead of hanging the command. With -ladder the single -algo build is
// replaced by a degradation ladder (e.g. expcuts,hicuts,hsm,linear):
// rungs are tried best-first under the budget and the report says which
// rung ended up serving.
//
// With -tenants N the trace is served through the multi-tenant engine:
// N tenants each own an independent build of the rule set (through their
// own ladder under their own budget copy), the trace splits round-robin
// across them, and the report carries per-tenant counts and the rung
// each tenant ended up serving from.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/rfc"
	"repro/internal/rmi"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/tenant"
	"repro/internal/update"
)

type classifier interface {
	Name() string
	Classify(h rules.Header) int
	MemoryBytes() int
}

// batchClassifier is the optional batched contract (engine.BatchClassifier
// shape); every repository classifier implements it.
type batchClassifier interface {
	ClassifyBatch(hs []rules.Header, out []int)
}

// pipelinedClassifier is the optional staged-walk contract
// (engine.PipelinedClassifier shape); ExpCuts and the update manager
// implement it.
type pipelinedClassifier interface {
	ClassifyBatchPipelined(hs []rules.Header, out []int, group int, affine bool)
}

func main() {
	// "pcclass serve" is the live-traffic front end (pcap replay and the
	// UDP classification server); everything else is the classic
	// trace-file mode below.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	var (
		rulesFile = flag.String("rules", "", "rule set file (ClassBench-style)")
		standard  = flag.String("ruleset", "", "standard set name (FW01..CR04) instead of -rules")
		traceFile = flag.String("trace", "", "trace file from pcgen")
		gen       = flag.Int("gen", 0, "generate a trace of this length instead of -trace")
		seed      = flag.Int64("seed", 1, "generated-trace seed")
		algo      = flag.String("algo", "expcuts", "expcuts, hicuts, hypercuts, hsm, rfc, rmi, linear")
		verify    = flag.Bool("verify", false, "cross-check every result against linear search")
		shards    = flag.Int("shards", 0, "engine: flow-affinity serving shards (0 = GOMAXPROCS when the engine runs; implies the engine)")
		flowCache = flag.Int("flowcache", 0, "engine: per-shard flow-cache capacity in flows, held in 8-way sets so 8 or more rounds down to a multiple of 8 (0 = off; implies the engine)")
		queue     = flag.Int("queue", 0, "engine dispatch ring depth (default 256)")
		unordered = flag.Bool("unordered", false, "engine: emit results in completion order instead of arrival order")
		overload  = flag.String("overload", "block", "engine overload policy: block (back-pressure) or shed (tail-drop)")
		timeout   = flag.Duration("timeout", 0, "engine: per-run deadline (0 = none)")
		tenantsN  = flag.Int("tenants", 0, "serve through the multi-tenant engine with this many tenants (each owning its own build of the rule set; trace split round-robin; implies the engine)")

		buildTimeout  = flag.Duration("build-timeout", 0, "build budget: wall-clock bound (0 = none)")
		buildMaxNodes = flag.Int("build-maxnodes", 0, "build budget: node/table-row bound (0 = none)")
		ladderNames   = flag.String("ladder", "", "build through this degradation ladder (comma-separated rungs, best first) instead of -algo")

		batch      = flag.Int("batch", 0, "batch size: engine dispatch granularity, ClassifyBatch chunking when sequential (0 = default/per-packet)")
		pipelined  = flag.Bool("pipeline", false, "classify batches through the software-pipelined stage walk (engine paths and the sequential batched path)")
		group      = flag.Int("group", engine.PipelineAuto, "stage group size for -pipeline (-1 = auto from GOMAXPROCS)")
		affine     = flag.Bool("affine", false, "with -pipeline: shard-affine counting-sorted walk order")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the classify phase")
		memProfile = flag.String("memprofile", "", "write a heap profile after classification")

		metricsAddr = flag.String("metrics", "", "serve Prometheus /metrics, /debug/vars and /events on this addr (e.g. 127.0.0.1:9915)")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the process (and -metrics endpoint) alive this long after the report")
		flightFile  = flag.String("flight", "", "write the event flight recorder as JSON to this file on exit ('-' for stderr)")
	)
	flag.Parse()

	// Observability plumbing: one registry, one flight-recorder ring.
	// Everything downstream takes these as optional and stays on its
	// uninstrumented path when they are nil.
	var (
		ring *obs.Ring
		reg  *obs.Registry
		em   *engine.Metrics
	)
	if *metricsAddr != "" || *flightFile != "" {
		ring = obs.NewRing(obs.DefaultRingSize)
		reg = obs.NewRegistry()
		reg.SetEvents(ring)
		reg.EnableExpvar()
		em = engine.NewMetrics(engine.DefaultMetricsShards)
		em.SetEvents(ring)
		em.Register(reg)
		stop := obs.DumpOnSIGQUIT(ring, os.Stderr)
		defer stop()
		if *flightFile != "" {
			defer func() {
				w := os.Stderr
				if *flightFile != "-" {
					f, err := os.Create(*flightFile)
					if err != nil {
						fmt.Fprintln(os.Stderr, "pcclass: flight recorder:", err)
						return
					}
					defer f.Close()
					w = f
				}
				if err := ring.WriteJSON(w); err != nil {
					fmt.Fprintln(os.Stderr, "pcclass: flight recorder:", err)
				}
			}()
		}
		if *metricsAddr != "" {
			srv, err := reg.Serve(*metricsAddr)
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Printf("metrics       http://%s/metrics (flight recorder at /events)\n", srv.Addr())
		}
	}

	rs, err := loadRules(*rulesFile, *standard)
	if err != nil {
		fatal(err)
	}
	headers, err := loadTrace(rs, *traceFile, *gen, *seed)
	if err != nil {
		fatal(err)
	}

	var budget *buildgov.Budget
	if *buildTimeout > 0 || *buildMaxNodes > 0 {
		budget = &buildgov.Budget{Timeout: *buildTimeout, MaxNodes: *buildMaxNodes, Events: ring}
	}
	start := time.Now()
	var cl classifier
	if *ladderNames != "" {
		cl, err = buildLadder(strings.Split(*ladderNames, ","), rs, budget, ring, reg)
	} else {
		cl, err = build(*algo, rs, budget)
	}
	if err != nil {
		fatal(err)
	}
	buildTime := time.Since(start)
	if t, ok := cl.(*expcuts.Tree); ok && reg != nil {
		reg.Register(buildStatsCollector(t))
	}

	oracle := linear.New(rs)
	counts := map[string]int{}
	mismatches := 0
	tally := func(h rules.Header, match int) {
		if *verify && match != oracle.Classify(h) {
			mismatches++
		}
		switch {
		case match < 0:
			counts["no-match"]++
		default:
			counts[rs.Rules[match].Action.String()]++
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcclass:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pcclass:", err)
			}
		}()
	}

	var engineStats engine.Stats
	var engineErr error
	var tenantStats engine.TenantStats
	var tenantReg *tenant.Registry
	useEngine := *shards > 0 || *flowCache > 0 || *tenantsN > 1
	start = time.Now()
	if useEngine {
		ecfg := engine.Config{
			Shards:         *shards,
			FlowCacheFlows: *flowCache,
			QueueDepth:     *queue,
			PreserveOrder:  !*unordered,
			BatchSize:      *batch,
			Metrics:        em,
		}
		if *pipelined {
			ecfg.PipelineGroup = *group
			ecfg.PipelineAffine = *affine
		}
		switch *overload {
		case "block":
			ecfg.Overload = engine.OverloadBlock
		case "shed":
			ecfg.Overload = engine.OverloadShed
		default:
			fatal(fmt.Errorf("unknown overload policy %q (block, shed)", *overload))
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *tenantsN > 1 {
			// Multi-tenant mode: each tenant owns its own generation of the
			// same rule set (built through its own ladder under its own
			// budget copy), and the trace is split round-robin across them.
			tenantReg = tenant.NewRegistry(tenant.Options{Events: ring})
			tcfg := tenant.Config{
				Budget:         budget,
				ShedOnOverload: *overload == "shed",
				Update:         update.Config{ValidateSamples: -1, Events: ring},
			}
			if *ladderNames != "" {
				tcfg.Ladder = strings.Split(*ladderNames, ",")
			}
			for i := 1; i <= *tenantsN; i++ {
				if _, err := tenantReg.Add(tenant.ID(i), rs, tcfg); err != nil {
					fatal(err)
				}
			}
			if reg != nil {
				tenantReg.Register(reg)
			}
			pkts := make([]engine.TenantPacket, len(headers))
			for i, h := range headers {
				pkts[i] = engine.TenantPacket{Tenant: uint32(i%*tenantsN + 1), Header: h}
			}
			start = time.Now() // time serving, not the N tenant builds above
			tenantStats, engineErr = engine.RunTenants(ctx, tenantReg, ecfg, pkts, func(r engine.TenantResult) {
				if r.Err != nil {
					return // shed, canceled or panicked: reported via stats
				}
				tally(r.Header, r.Match)
			})
			engineStats = tenantStats.Stats
			tenantReg.Absorb(tenantStats)
		} else {
			engineStats, engineErr = engine.RunContext(ctx, cl, ecfg, headers, func(r engine.Result) {
				if r.Err != nil {
					return // shed, canceled or panicked: reported via stats
				}
				tally(r.Header, r.Match)
			})
		}
		if engineErr != nil && !errors.Is(engineErr, context.DeadlineExceeded) {
			fatal(engineErr)
		}
	} else if pc, ok := cl.(pipelinedClassifier); ok && *pipelined && *batch > 1 {
		// Sequential pipelined path: same chunking as the batched path,
		// but each chunk walks the staged two-phase pipeline.
		g := *group
		if g == engine.PipelineAuto {
			g = engine.AutoPipelineGroup()
		}
		matches := make([]int, *batch)
		for i := 0; i < len(headers); i += *batch {
			chunk := headers[i:min(i+*batch, len(headers))]
			pc.ClassifyBatchPipelined(chunk, matches[:len(chunk)], g, *affine)
			for k, h := range chunk {
				tally(h, matches[k])
			}
		}
	} else if bc, ok := cl.(batchClassifier); ok && *batch > 1 {
		// Sequential batched path: classify fixed-size chunks through
		// ClassifyBatch, reusing one match buffer.
		matches := make([]int, *batch)
		for i := 0; i < len(headers); i += *batch {
			chunk := headers[i:min(i+*batch, len(headers))]
			bc.ClassifyBatch(chunk, matches[:len(chunk)])
			for k, h := range chunk {
				tally(h, matches[k])
			}
		}
	} else {
		for _, h := range headers {
			tally(h, cl.Classify(h))
		}
	}
	classifyTime := time.Since(start)

	fmt.Printf("rule set      %s (%d rules)\n", rs.Name, rs.Len())
	fmt.Printf("classifier    %s (built in %v, %.2f MB SRAM)\n",
		cl.Name(), buildTime.Round(time.Millisecond), float64(cl.MemoryBytes())/1e6)
	fmt.Printf("packets       %d in %v (%.2f Mpkt/s native Go)\n",
		len(headers), classifyTime.Round(time.Millisecond),
		float64(len(headers))/classifyTime.Seconds()/1e6)
	if useEngine {
		fmt.Printf("engine        %d flow-affinity shards (flow cache %d flows/shard), %s overload, order %v\n",
			engineStats.Shards, *flowCache, *overload, !*unordered)
		fmt.Printf("  classified %d  shed %d  panics %d  canceled %d  max-reorder %d\n",
			engineStats.Packets, engineStats.Shed, engineStats.Panics,
			engineStats.Canceled, engineStats.MaxReorder)
		if engineErr != nil {
			fmt.Printf("  run cut short: %v\n", engineErr)
		}
		if tenantReg != nil {
			fmt.Printf("tenants       %d, %s overload each\n", *tenantsN, *overload)
			for _, id := range tenantReg.IDs() {
				rt := tenantReg.Get(id)
				c := rt.Counts()
				algo, lvl := rt.DescribeAlgorithm()
				fmt.Printf("  tenant %-4v %s (level %d)  offered %d  classified %d  shed %d  panics %d\n",
					id, algo, lvl, c.Offered, c.Classified, c.Shed, c.Panicked)
			}
		}
	}
	for _, action := range []string{"permit", "deny", "class0", "class1", "class2", "class3", "no-match"} {
		if counts[action] > 0 {
			fmt.Printf("  %-9s %d\n", action, counts[action])
		}
	}
	if *verify {
		if mismatches > 0 {
			fmt.Printf("VERIFY FAILED: %d mismatches against linear search\n", mismatches)
			os.Exit(1)
		}
		fmt.Println("verify        all results match linear search")
	}
	if *metricsHold > 0 {
		time.Sleep(*metricsHold)
	}
}

// buildStatsCollector exposes the ExpCuts build-time statistics — the
// paper's Table/Figure quantities — as pc_build_* gauges. Build stats
// are immutable after construction, so the collector just re-reads them
// on each scrape.
func buildStatsCollector(t *expcuts.Tree) obs.Collector {
	return func(emit func(obs.Sample)) {
		st := t.Stats()
		gauge := func(name, help string, v float64) {
			emit(obs.Sample{Name: name, Help: help, Type: "gauge", Value: v})
		}
		gauge("pc_build_nodes", "Unique internal nodes in the serving ExpCuts tree.", float64(st.Nodes))
		gauge("pc_build_depth", "Explicit tree depth of the serving ExpCuts tree.", float64(st.Depth))
		gauge("pc_build_memory_bytes", "Serialized SRAM footprint of the serving classifier.", float64(t.MemoryBytes()))
		gauge("pc_build_worst_case_accesses", "Worst-case SRAM accesses per lookup.", float64(st.WorstCaseAccesses))
		// Per-level stage fill of the software-pipelined walk: node visits
		// at each original tree level (level 0: every packet walked, root
		// elided or not). Level l over level 0 is the software reading of
		// per-stage bank occupancy; all-zero when the pipelined walk has
		// not served.
		for lvl, entries := range t.StageFill() {
			emit(obs.Sample{
				Name:   "pc_pipeline_stage_entries_total",
				Help:   "Node visits at each original tree level via the software-pipelined walk (level 0: packets walked).",
				Type:   "counter",
				Labels: []obs.Label{{Key: "level", Value: fmt.Sprintf("%d", lvl)}},
				Value:  float64(entries),
			})
		}
	}
}

func loadRules(file, standard string) (*rules.RuleSet, error) {
	if standard != "" {
		return rulegen.Standard(standard)
	}
	if file == "" {
		return nil, fmt.Errorf("need -rules or -ruleset")
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rules.Parse(file, f)
}

func loadTrace(rs *rules.RuleSet, file string, gen int, seed int64) ([]rules.Header, error) {
	if gen > 0 {
		tr, err := pktgen.Generate(rs, pktgen.Config{Count: gen, Seed: seed, MatchFraction: pktgen.DefaultMatchFraction})
		if err != nil {
			return nil, err
		}
		return tr.Headers, nil
	}
	if file == "" {
		return nil, fmt.Errorf("need -trace or -gen")
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []rules.Header
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var src, dst string
		var sp, dp, proto int
		if _, err := fmt.Sscanf(line, "%s %s %d %d %d", &src, &dst, &sp, &dp, &proto); err != nil {
			return nil, fmt.Errorf("trace line %d: %v", lineNo, err)
		}
		s, err := rules.ParseIP(src)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %v", lineNo, err)
		}
		d, err := rules.ParseIP(dst)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %v", lineNo, err)
		}
		out = append(out, rules.Header{
			SrcIP: s, DstIP: d,
			SrcPort: uint16(sp), DstPort: uint16(dp), Proto: uint8(proto),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func build(algo string, rs *rules.RuleSet, budget *buildgov.Budget) (classifier, error) {
	ctx := context.Background()
	switch algo {
	case "expcuts":
		return expcuts.NewCtx(ctx, rs, expcuts.Config{}, budget)
	case "hicuts":
		return hicuts.NewCtx(ctx, rs, hicuts.Config{}, budget)
	case "hypercuts":
		return hypercuts.NewCtx(ctx, rs, hypercuts.Config{}, budget)
	case "hsm":
		return hsm.NewCtx(ctx, rs, hsm.Config{}, budget)
	case "rfc":
		return rfc.NewCtx(ctx, rs, rfc.Config{}, budget)
	case "rmi":
		return rmi.NewCtx(ctx, rs, rmi.Config{}, budget)
	case "linear":
		return linear.New(rs), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (expcuts, hicuts, hypercuts, hsm, rfc, rmi, linear)", algo)
}

// laddered adapts an update.Manager to the local classifier interface
// and forwards DescribeAlgorithm so the engine attributes runs to the
// serving rung.
type laddered struct{ m *update.Manager }

func (l laddered) Classify(h rules.Header) int { return l.m.Classify(h) }
func (l laddered) ClassifyBatch(hs []rules.Header, out []int) {
	l.m.ClassifyBatch(hs, out)
}
func (l laddered) MemoryBytes() int { return l.m.MemoryBytes() }
func (l laddered) Name() string {
	algo, level := l.m.DescribeAlgorithm()
	return fmt.Sprintf("ladder:%s (degradation level %d)", algo, level)
}
func (l laddered) DescribeAlgorithm() (string, int) { return l.m.DescribeAlgorithm() }

func buildLadder(names []string, rs *rules.RuleSet, budget *buildgov.Budget, ring *obs.Ring, reg *obs.Registry) (classifier, error) {
	rungs, err := update.LadderFromNames(names, budget)
	if err != nil {
		return nil, err
	}
	m, err := update.NewManagerLadder(rs, rungs, update.Config{MaxBuildAttempts: 1, Events: ring})
	if err != nil {
		return nil, err
	}
	m.Register(reg)
	if h := m.Health(); h.BudgetTrips > 0 {
		fmt.Printf("ladder        %d budget-tripped build(s) before settling\n", h.BudgetTrips)
	}
	return laddered{m: m}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcclass:", err)
	os.Exit(1)
}
