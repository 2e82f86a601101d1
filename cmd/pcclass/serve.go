// pcclass serve: the real packet I/O front end. Two sources feed the
// same sharded streaming engine (engine.RunStream):
//
//	pcclass serve -ruleset CR04 -pcap trace.pcap -verify
//	pcclass serve -ruleset CR04 -listen 127.0.0.1:9920 -duration 10s
//
// -pcap replays a classic libpcap capture (native reader, no cgo)
// through wire decode and reports throughput, decode errors and —
// with -verify — oracle-exact agreement with linear search. -listen
// serves the UDP request/reply protocol (see internal/pcapio) until
// -duration elapses or SIGINT/SIGTERM arrives, echoing one verdict per
// request, then prints the conservation accounting. pcload is the
// matching load generator.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildgov"
	"repro/internal/engine"
	"repro/internal/iofront"
	"repro/internal/linear"
	"repro/internal/obs"
	"repro/internal/pcapio"
	"repro/internal/rules"
)

func serveMain(args []string) {
	fs := flag.NewFlagSet("pcclass serve", flag.ExitOnError)
	var (
		rulesFile = fs.String("rules", "", "rule set file (ClassBench-style)")
		standard  = fs.String("ruleset", "", "standard set name (FW01..CR04) instead of -rules")
		algo      = fs.String("algo", "expcuts", "expcuts, hicuts, hypercuts, hsm, rfc, rmi, linear")
		ladder    = fs.String("ladder", "", "build through this degradation ladder instead of -algo")

		pcapFile = fs.String("pcap", "", "replay this libpcap capture file and exit")
		verify   = fs.Bool("verify", false, "with -pcap: cross-check every verdict against linear search")

		listen   = fs.String("listen", "", "serve the UDP request/reply protocol on this address")
		duration = fs.Duration("duration", 0, "with -listen: serve this long, then report (0 = until SIGINT/SIGTERM)")
		flush    = fs.Duration("flush", 0, "with -listen: batch flush interval for idle traffic (default 500µs)")
		quiet    = fs.Bool("quiet", false, "with -listen: classify but do not echo verdicts")

		shards    = fs.Int("shards", 0, "flow-affinity serving shards (0 = GOMAXPROCS)")
		flowCache = fs.Int("flowcache", 0, "per-shard flow-cache capacity in flows, held in 8-way sets so 8 or more rounds down to a multiple of 8 (0 = off)")
		queue     = fs.Int("queue", 0, "engine dispatch ring depth (default 256)")
		batch     = fs.Int("batch", 0, "engine dispatch batch size (default 64)")
		overload  = fs.String("overload", "block", "overload policy: block (back-pressure) or shed (tail-drop)")

		buildTimeout  = fs.Duration("build-timeout", 0, "build budget: wall-clock bound (0 = none)")
		buildMaxNodes = fs.Int("build-maxnodes", 0, "build budget: node/table-row bound (0 = none)")

		metricsAddr = fs.String("metrics", "", "serve Prometheus /metrics on this addr while serving traffic")
	)
	fs.Parse(args)

	if (*pcapFile == "") == (*listen == "") {
		fatal(fmt.Errorf("serve needs exactly one of -pcap or -listen"))
	}

	var (
		reg *obs.Registry
		em  *engine.Metrics
	)
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		em = engine.NewMetrics(engine.DefaultMetricsShards)
		em.Register(reg)
		srv, err := reg.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics       http://%s/metrics\n", srv.Addr())
	}

	rs, err := loadRules(*rulesFile, *standard)
	if err != nil {
		fatal(err)
	}
	var budget *buildgov.Budget
	if *buildTimeout > 0 || *buildMaxNodes > 0 {
		budget = &buildgov.Budget{Timeout: *buildTimeout, MaxNodes: *buildMaxNodes}
	}
	start := time.Now()
	var cl classifier
	if *ladder != "" {
		cl, err = buildLadder(strings.Split(*ladder, ","), rs, budget, nil, reg)
	} else {
		cl, err = build(*algo, rs, budget)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rule set      %s (%d rules)\n", rs.Name, rs.Len())
	fmt.Printf("classifier    %s (built in %v, %.2f MB SRAM)\n",
		cl.Name(), time.Since(start).Round(time.Millisecond), float64(cl.MemoryBytes())/1e6)

	ecfg := engine.Config{
		Shards:         *shards,
		FlowCacheFlows: *flowCache,
		QueueDepth:     *queue,
		BatchSize:      *batch,
		PreserveOrder:  true,
		Metrics:        em,
	}
	switch *overload {
	case "block":
		ecfg.Overload = engine.OverloadBlock
	case "shed":
		ecfg.Overload = engine.OverloadShed
	default:
		fatal(fmt.Errorf("unknown overload policy %q (block, shed)", *overload))
	}

	if *pcapFile != "" {
		replayPcap(*pcapFile, rs, cl, ecfg, *verify)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	rep, err := iofront.ListenAndServe(ctx, *listen, cl, iofront.ServerConfig{
		Engine:        ecfg,
		FlushInterval: *flush,
		Echo:          !*quiet,
	}, os.Stdout)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("received      %d datagrams (%d decode errors)\n", rep.Received, rep.DecodeErrors)
	fmt.Printf("  classified %d  shed %d  canceled %d  panics %d  replies %d\n",
		rep.Classified, rep.Shed, rep.Canceled, rep.Panics, rep.Replies)
	fmt.Println("accounting    exact (received = decode-errors + classified + shed + canceled + panics)")
}

// replayPcap streams a capture file through the engine as fast as it
// will classify, optionally checking each verdict against the oracle.
func replayPcap(path string, rs *rules.RuleSet, cl classifier, ecfg engine.Config, verify bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// One syscall per buffer, not per 80-byte record.
	src, err := pcapio.NewPcapSource(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		fatal(err)
	}
	oracle := linear.New(rs)
	mismatches := 0
	classified := 0
	start := time.Now()
	st, err := engine.RunStream(context.Background(), cl, ecfg, src, func(r engine.Result) {
		if r.Err != nil {
			return // shed or canceled: reported via stats
		}
		classified++
		if verify && r.Match != oracle.Classify(r.Header) {
			mismatches++
		}
	})
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	if err := src.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("pcap          %s: %d records, %d decode errors\n", path, src.Records, src.DecodeErrors)
	fmt.Printf("packets       %d in %v (%.2f Mpkt/s)\n", st.Packets, elapsed.Round(time.Millisecond),
		float64(st.Packets)/elapsed.Seconds()/1e6)
	fmt.Printf("  classified %d  shed %d  max-reorder %d over %d shards\n",
		classified, st.Shed, st.MaxReorder, st.Shards)
	if verify {
		if mismatches > 0 {
			fmt.Printf("VERIFY FAILED: %d mismatches against linear search\n", mismatches)
			os.Exit(1)
		}
		fmt.Println("verify        all replayed verdicts match linear search")
	}
}
