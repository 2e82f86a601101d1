package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/engine"
	"repro/internal/iofront"
	"repro/internal/pcapio"
	"repro/internal/wire"
)

const (
	udpFlows      = 1 << 16 // distinct requests cycled over the socket
	openRate      = 20000   // requests per second, fixed
	closedWindow  = 256     // requests outstanding
	minRateFrac   = 0.99
	maxLateShare  = 0.10 // generator lateness, at the percentile rtt_tail_us reports, as a share of rtt_p50_us
	serveSpanName = "iofront.serve"
)

// udpEnv is CR04 on expcuts behind iofront.Serve, driven over loopback.
type udpEnv struct {
	base   *cr04Tree
	closed bool
	frames [][]byte
	want   []int32
}

func setupUDP(p presets, seed int64, closed bool) (env, error) {
	c, err := setupCR04(p, seed)
	if err != nil {
		return nil, err
	}
	return &udpEnv{base: c, closed: closed, frames: wire.BuildTrace(c.flows[:udpFlows])}, nil
}

func setupUDPOpen(p presets, seed int64) (env, error)   { return setupUDP(p, seed, false) }
func setupUDPClosed(p presets, seed int64) (env, error) { return setupUDP(p, seed, true) }

func (e *udpEnv) memBytes() int { return e.base.tree.MemoryBytes() }

func (e *udpEnv) prepare() error {
	e.want = oracle(e.base.rs, e.base.flows[:udpFlows], nil)
	return nil
}

func (e *udpEnv) load(o runOpts, checked bool) loadConfig {
	lc := loadConfig{closed: e.closed, rate: openRate, window: closedWindow,
		warm: o.warm, timed: o.timed, frames: e.frames, rec: o.rec}
	if checked {
		lc.want = e.want
	}
	return lc
}

// serveAndLoad runs iofront.Serve (default FlushInterval, Echo on) on a
// loopback socket for as long as the generator runs.
func serveAndLoad(cl engine.Classifier, lc loadConfig) (loadResult, iofront.ServeReport, error) {
	server, client, err := loopbackPair()
	if err != nil {
		return loadResult{}, iofront.ServeReport{}, err
	}
	defer server.Close()
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type served struct {
		rep iofront.ServeReport
		err error
	}
	done := make(chan served, 1)
	go func() {
		rep, err := iofront.Serve(ctx, server, cl, iofront.ServerConfig{Engine: engineConfig(), Echo: true})
		done <- served{rep, err}
	}()
	res, loadErr := runLoad(client, lc)
	cancel()
	s := <-done
	if loadErr != nil {
		return res, s.rep, loadErr
	}
	if s.err != nil {
		return res, s.rep, fmt.Errorf("iofront.Serve: %w", s.err) // includes ServeReport.Check
	}
	return res, s.rep, nil
}

// echoAndLoad drives the benchmark's own echo server instead: the floor.
func echoAndLoad(lc loadConfig) (loadResult, error) {
	server, client, err := loopbackPair()
	if err != nil {
		return loadResult{}, err
	}
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		echoServe(server, nil)
	}()
	res, err := runLoad(client, lc)
	server.Close()
	<-done
	return res, err
}

// errSpoiled is run's error when the generator spoiled the window.
var errSpoiled = errors.New("INVALID as a latency measurement")

// run serves and loads for one warm-up and timed window. An open-loop
// window measures the server only if the generator kept its schedule: one
// in which it fell behind its rate or ran late measures the generator, and
// run returns errSpoiled beside the outcome (for the smoke test, which
// times nothing). Late is judged at the percentile the benchmark reports
// (tailPct, p90): lateness is inside every round trip, so that is what
// bounds the generator's share of rtt_p50_us and rtt_tail_us. Lateness
// p99 is on the ledger; on a shared host it is the few sends a second
// that fall while the hypervisor has the sender's core, 10 to 250 us.
func (e *udpEnv) run(o runOpts) (outcome, error) {
	var cl engine.Classifier = e.base.tree
	var wrap *spanClassifier
	var serveID uint64
	var t0 int64
	if o.rec != nil {
		wrap = &spanClassifier{inner: e.base.tree, rec: o.rec, name: "expcuts." + classifySpan}
		serveID, t0 = o.rec.newID(), o.rec.now()
		wrap.parent.Store(serveID)
		cl = wrap
	}
	res, rep, err := serveAndLoad(cl, e.load(o, true))
	if err != nil {
		return outcome{}, err
	}
	if o.rec != nil {
		o.rec.add(serveID, 0, serveSpanName, t0, o.rec.now())
	}
	out := outcome{attempted: res.offered, failed: res.failed(), rate: res.rates,
		lat: summarize(res.rttNs, o.tailPct), layer: map[string]float64{}}
	if e.closed {
		out.notes = append(out.notes, fmt.Sprintf("closed loop, window %d: most outstanding %d, %d written off; rtt runs from the send",
			closedWindow, res.maxOutstanding, res.reclaimed))
	}
	out.notes = append(out.notes, fmt.Sprintf("server: %d received, %d decode errors, %d classified, %d shed, %d canceled, %d panicked, %d replies",
		rep.Received, rep.DecodeErrors, rep.Classified, rep.Shed, rep.Canceled, rep.Panics, rep.Replies))

	if rep.Received > 0 {
		out.layer["iofront.reply_frac"] = float64(rep.Replies) / float64(rep.Received)
	}
	out.layer["iofront.decode_errors"] = float64(rep.DecodeErrors)
	if res.offered > 0 {
		out.layer["loadgen.over_5ms_frac"] = float64(res.over5ms) / float64(res.offered)
	}
	if wrap != nil && wrap.calls.Load() > 0 {
		out.layer["iofront.batch_fill_mean"] = float64(wrap.pkts.Load()) / float64(wrap.calls.Load())
	}
	if e.closed {
		return out, nil
	}
	late := summarize(res.lateNs, o.tailPct)
	achieved := res.achievedRateFrac(openRate)
	out.layer["loadgen.late_p99_us"] = late.p99us
	out.layer["loadgen.achieved_rate_frac"] = achieved
	out.notes = append(out.notes, fmt.Sprintf("open loop at %d requests/s, rtt runs from the instant a request was due; the generator held %.4f of the rate and sent p50 %.1f us, p%g %.1f us, p99 %.1f us after the due instant",
		openRate, achieved, late.p50us, o.tailPct, late.tailUs, late.p99us))
	var whys []string
	if achieved < minRateFrac {
		whys = append(whys, fmt.Sprintf("the generator held %.4f of its rate", achieved))
	}
	if late.tailUs > maxLateShare*out.lat.p50us {
		whys = append(whys, fmt.Sprintf("generator lateness p%g %.1f us exceeds %.0f%% of rtt p50 %.1f us", o.tailPct, late.tailUs, maxLateShare*100, out.lat.p50us))
	}
	// Loss needs no rule here: every lost request is a failed operation,
	// and one is enough to fail the run.
	if len(whys) > 0 {
		return out, fmt.Errorf("%w: %s", errSpoiled, strings.Join(whys, ", "))
	}
	return out, nil
}

func (e *udpEnv) ledger(lc *ledgerCtx) error {
	o := lc.opts
	o.rec = nil
	o.timed /= 2 // the floor and the stub need less than the workload itself
	o.warm /= 2
	echo, err := echoAndLoad(e.load(o, false))
	if err != nil {
		return fmt.Errorf("echo floor: %w", err)
	}
	stub, _, err := serveAndLoad(constClassifier{}, e.load(o, false))
	if err != nil {
		return fmt.Errorf("stub server: %w", err)
	}
	codecNs, err := e.ledgerCodec(lc)
	if err != nil {
		return err
	}
	classifyP50 := quantile(sortedCopy(durations(lc.spans, "expcuts."+classifySpan)), 0.5) / 1e3
	lc.m["iofront.classify_span_p50_us"] = classifyP50
	if e.closed {
		lc.m["udp_kpps"] = lc.traced.rate.perSec / 1e3
		lc.m["host.udp_echo_kpps"] = echo.rates.perSec / 1e3
		lc.m["iofront.stub_kpps"] = stub.rates.perSec / 1e3
		return nil
	}
	floor := summarize(echo.rttNs, 50).p50us
	lc.m["host.udp_echo_rtt_p50_us"] = floor
	lc.m["iofront.stub_rtt_p50_us"] = summarize(stub.rttNs, 50).p50us
	// What is left of the median round trip once the host floor, the
	// classify call and the batch's decode work are taken out: time spent
	// waiting in the server that no layer owns.
	fill := lc.traced.layer["iofront.batch_fill_mean"]
	lc.m["iofront.unattributed_us"] = lc.traced.lat.p50us - floor - classifyP50 - fill*codecNs/1e3
	return nil
}

// ledgerCodec times the per-packet decode work of the receive path, one
// call at a time, and returns its sum in nanoseconds per packet.
func (e *udpEnv) ledgerCodec(lc *ledgerCtx) (float64, error) {
	n := len(e.frames)
	reqs := make([][]byte, n)
	for i, f := range e.frames {
		reqs[i] = pcapio.AppendRequest(nil, uint64(i), f)
	}
	var parseErrs int
	allocs := mallocsDuring(func() {
		lc.m["wire.parse_ns_per_pkt"] = lc.timeIt("ledger.wire.parse_frame", ledgerReps, n, func() {
			for _, f := range e.frames {
				if _, err := wire.ParseFrame(f); err != nil {
					parseErrs++
				}
			}
		})
	})
	lc.m["wire.parse_allocs_per_pkt"] = float64(allocs) / float64(n*(ledgerReps+1))

	var seg pcapio.Segment
	var reply [pcapio.ReplyLen]byte
	allocs = mallocsDuring(func() {
		lc.m["pcapio.segment_append_ns_per_pkt"] = lc.timeIt("ledger.pcapio.segment_append", ledgerReps, n, func() {
			for i, r := range reqs {
				if i%batchSize == 0 {
					seg.Reset()
				}
				seg.Append(r)
			}
		})
		lc.m["pcapio.codec_ns_per_pkt"] = lc.timeIt("ledger.pcapio.codec", ledgerReps, n, func() {
			for _, r := range reqs {
				token, _, err := pcapio.ParseRequest(r)
				if err != nil {
					parseErrs++
				}
				pcapio.PutReply(reply[:], token, 0)
			}
		})
	})
	lc.m["pcapio.allocs_per_pkt"] = float64(allocs) / float64(2*n*(ledgerReps+1))
	if parseErrs > 0 {
		return 0, fmt.Errorf("the decoders rejected %d of the benchmark's own frames", parseErrs)
	}
	return lc.m["wire.parse_ns_per_pkt"] + lc.m["pcapio.segment_append_ns_per_pkt"] + lc.m["pcapio.codec_ns_per_pkt"], nil
}

func mallocsDuring(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}
