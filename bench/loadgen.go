package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/pcapio"
)

// The UDP generator: one sender goroutine and one receiver goroutine on
// one connected socket, speaking the pcapio request/reply codec.
//
// Open loop models independent users: request i is due at i/rate whatever
// the server does, the sender never skips a slot, and a request's latency
// runs from the instant it was due — so a server stall is charged to every
// request that fell due during it (no coordinated omission). Closed loop
// models callers that wait: at most window requests are outstanding, a
// reply frees a slot, latency runs from the send.

const (
	latencyLimit = 5 * time.Millisecond   // a request answered later than this, or never, missed
	lossTimeout  = 100 * time.Millisecond // closed loop: a silent full window is written off after this
	drainTime    = 200 * time.Millisecond // wait for stragglers after the last send
	rttSpanBase  = 1 << 32                // rtt span id = rttSpanBase + token
)

type loadConfig struct {
	closed      bool
	rate        int // open loop: requests per second
	window      int // closed loop: most requests outstanding
	warm, timed time.Duration
	frames      [][]byte // request i carries frames[i%len(frames)]
	want        []int32  // verdict expected for frames[i]; nil accepts any (echo server)
	rec         *recorder
}

// loadResult counts the requests of the timed window only (due, or sent,
// inside it); rates counts every right reply as it arrives
// (open loop: only those inside latencyLimit).
type loadResult struct {
	offered        int64
	answered       int64
	wrong          int64 // answered with another verdict than expected, shed and decode-error included
	shed           int64
	decodeErrors   int64
	over5ms        int64 // answered after latencyLimit, plus every unanswered request
	rttNs          []float64
	lateNs         []float64 // open loop: send time minus due time
	rates          rates
	maxOutstanding int64         // most requests sent and neither answered nor written off
	sendSpan       time.Duration // from the window's first send to its last, as it happened
	senderCPU      time.Duration // open loop: CPU the sender's thread used over the window, its spin included
	reclaimed      int64         // closed loop: requests written off by the loss timeout
}

func (r loadResult) lost() int64 { return r.offered - r.answered }

// failed is every request of the window that did not come back right.
func (r loadResult) failed() int64 { return r.lost() + r.wrong }

// achievedRateFrac is the rate the open-loop sender really held over the
// window — requests sent over the time it took to send them — as a share
// of the target.
func (r loadResult) achievedRateFrac(rate int) float64 {
	if r.offered < 2 || r.sendSpan <= 0 {
		return 0
	}
	return float64(r.offered-1) / r.sendSpan.Seconds() / float64(rate)
}

func runLoad(conn *net.UDPConn, cfg loadConfig) (loadResult, error) {
	var res loadResult
	warmEnd, end := cfg.warm, cfg.warm+cfg.timed
	ring := 4 * cfg.window
	var interval time.Duration
	if !cfg.closed {
		interval = time.Second / time.Duration(cfg.rate)
		ring = int(end/interval) + 1
	}
	size := 1
	for size < ring {
		size <<= 1
	}
	mask := uint64(size - 1)
	// slots[token&mask] holds the request's start (due or send time, ns
	// since t0, plus one) until its reply is read. The socket round trip
	// is not a happens-before edge, hence atomics.
	slots := make([]atomic.Int64, size)
	var issued, replies, reclaimed atomic.Int64
	sem := make(chan struct{}, max(cfg.window, 1))

	sl := newMeter(runOpts{warm: cfg.warm, timed: cfg.timed})
	t0 := sl.t0
	expect := int(cfg.timed.Seconds()*float64(cfg.rate)) + 1
	if cfg.closed {
		expect = 1 << 20
	}
	res.rttNs = make([]float64, 0, expect)

	recvDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		var valid int64
		for {
			m, err := conn.Read(buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					err = nil // the drain window closed
				}
				recvDone <- err
				return
			}
			now := time.Since(t0)
			token, verdict, err := pcapio.ParseReply(buf[:m])
			if err != nil || int64(token) >= issued.Load() {
				continue // not a reply to anything we sent
			}
			started := slots[token&mask].Swap(0)
			if started == 0 {
				continue // duplicate, or already written off
			}
			replies.Add(1)
			if cfg.closed {
				select {
				case <-sem:
				default:
				}
			}
			start := time.Duration(started - 1)
			ok := cfg.want == nil || verdict == cfg.want[token%uint64(len(cfg.want))]
			// The open loop's rate is goodput: right answers inside the
			// latency limit. The closed loop has no limit to meet; its
			// round trip is set by the window.
			if ok && (cfg.closed || now-start <= latencyLimit) {
				valid++
			}
			sl.tickAt(now, valid)
			if cfg.rec != nil {
				cfg.rec.add(rttSpanBase+token, 0, "rtt", int64(t0.Sub(cfg.rec.base)+start), int64(t0.Sub(cfg.rec.base)+now))
			}
			if start < warmEnd || start >= end {
				continue
			}
			res.answered++
			res.rttNs = append(res.rttNs, float64(now-start))
			if now-start > latencyLimit {
				res.over5ms++
			}
			if !ok {
				res.wrong++
				switch verdict {
				case pcapio.VerdictShed:
					res.shed++
				case pcapio.VerdictDecodeError:
					res.decodeErrors++
				}
			}
		}
	}()

	req := make([]byte, 0, pcapio.MaxRequestLen)
	var firstSend time.Duration
	send := func(token int64, start time.Duration) error {
		slots[uint64(token)&mask].Store(int64(start) + 1)
		issued.Store(token + 1)
		req = pcapio.AppendRequest(req[:0], uint64(token), cfg.frames[token%int64(len(cfg.frames))])
		if _, err := conn.Write(req); err != nil {
			return fmt.Errorf("loadgen: sending request %d: %w", token, err)
		}
		if out := token + 1 - replies.Load() - reclaimed.Load(); out > res.maxOutstanding {
			res.maxOutstanding = out
		}
		if start >= warmEnd && start < end {
			now := time.Since(t0)
			if res.offered == 0 {
				firstSend = now
			}
			res.sendSpan = now - firstSend
			res.offered++
		}
		return nil
	}

	var sendErr error
	if cfg.closed {
		stop := make(chan struct{})
		watchdogDone := make(chan struct{})
		go func() {
			// A full window that hears nothing for lossTimeout is lost
			// traffic (UDP may drop): write it off so the loop keeps going.
			defer close(watchdogDone)
			tk := time.NewTicker(lossTimeout / 2)
			defer tk.Stop()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				case <-tk.C:
					cur := replies.Load()
					if cur == last && len(sem) == cap(sem) {
						for n := len(sem); n > 0; n-- {
							select {
							case <-sem:
								reclaimed.Add(1)
							default:
							}
						}
					}
					last = cur
				}
			}
		}()
		for token := int64(0); sendErr == nil; token++ {
			sem <- struct{}{}
			now := time.Since(t0)
			if now >= end {
				break
			}
			sendErr = send(token, now)
		}
		close(stop)
		<-watchdogDone
	} else {
		res.lateNs = make([]float64, 0, expect)
		total := int64(end / interval)
		pace := newPacer()
		defer pace.release()
		var cpuAtWarm time.Duration
		for token := int64(0); token < total && sendErr == nil; token++ {
			due := time.Duration(token) * interval
			if due >= warmEnd && cpuAtWarm == 0 {
				cpuAtWarm = pace.cpu()
			}
			// A late wake-up sends everything that fell due meanwhile, and each
			// request is still timed from its own due instant.
			pace.sleepUntil(t0, due)
			if due >= warmEnd {
				res.lateNs = append(res.lateNs, float64(time.Since(t0)-due))
			}
			sendErr = send(token, due)
		}
		res.senderCPU = pace.cpu() - cpuAtWarm
	}
	res.reclaimed = reclaimed.Load()

	if err := conn.SetReadDeadline(time.Now().Add(drainTime)); err != nil {
		return res, fmt.Errorf("loadgen: %w", err)
	}
	recvErr := <-recvDone
	if sendErr != nil {
		return res, sendErr
	}
	if recvErr != nil {
		return res, fmt.Errorf("loadgen: reading replies: %w", recvErr)
	}
	res.over5ms += res.lost()
	res.rates = sl.rates()
	if res.rates.units > 0 {
		// Open loop: the sender's thread, which spins to its schedule, is
		// not part of what a request costs the server.
		res.rates.cpuNsPerUnit -= float64(res.senderCPU) / float64(res.rates.units)
	}
	return res, nil
}

// pacer holds the sender to its schedule on a thread of its own: it sleeps
// in the kernel until spinMargin before an instant and spins the rest. The
// runtime's timers will not do — it polls the network with a millisecond
// timeout, so time.Sleep(50us) wakes a millisecond late on an idle host
// (here: p50 1068 us late, against 18 us for nanosleep at the smallest
// timer slack) and a sender paced by it sends in millisecond bursts. The
// spin costs most of a core at 20000 requests/s; cpu() reports it so the
// workload can leave it out of the server's bill.
type pacer struct{}

const (
	spinMargin      = 50 * time.Microsecond // nanosleep's p99 overshoot here
	prSetTimerSlack = 29                    // PR_SET_TIMERSLACK; 0 restores the thread's default
	rusageThread    = 1                     // RUSAGE_THREAD
)

func newPacer() pacer {
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the spin covers a later wake-up
	return pacer{}
}

func (pacer) release() {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	runtime.UnlockOSThread()
}

// sleepUntil returns once due has passed on the clock that started at t0.
func (pacer) sleepUntil(t0 time.Time, due time.Duration) {
	for {
		wait := due - time.Since(t0)
		if wait <= 0 {
			return
		}
		if wait > spinMargin {
			ts := syscall.NsecToTimespec(int64(wait - spinMargin))
			_ = syscall.Nanosleep(&ts, nil) // cut short by a signal: the loop sleeps the rest
		}
	}
}

// cpu is the user+system CPU time the pacer's thread has used.
func (pacer) cpu() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// echoServe is the benchmark's own server: it answers every request with
// verdict 0 through the same net.UDPConn calls iofront.Serve uses, so what
// it measures is the floor the host's loopback imposes. pause, when not
// nil, is called with the count of requests read so far (tests stall it).
// It returns when conn is closed.
func echoServe(conn *net.UDPConn, pause func(n int)) {
	buf := make([]byte, pcapio.MaxRequestLen+1)
	var out [pcapio.ReplyLen]byte
	for n := 1; ; n++ {
		m, addr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if pause != nil {
			pause(n)
		}
		token, _, err := pcapio.ParseRequest(buf[:m])
		if err != nil {
			continue
		}
		_, _ = conn.WriteToUDPAddrPort(pcapio.PutReply(out[:], token, 0), addr) // a dropped reply shows up as loss
	}
}

// loopbackPair opens a server socket on the loopback interface and a
// client socket connected to it.
func loopbackPair() (server, client *net.UDPConn, err error) {
	server, err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: %w", err)
	}
	client, err = net.DialUDP("udp4", nil, server.LocalAddr().(*net.UDPAddr))
	if err != nil {
		server.Close()
		return nil, nil, fmt.Errorf("loadgen: %w", err)
	}
	// A closed-loop window or a stalled server must queue, not drop.
	for _, c := range []*net.UDPConn{server, client} {
		_ = c.SetReadBuffer(4 << 20) // best effort: the kernel caps it
	}
	return server, client, nil
}
