// Package iofront is the live-traffic front end: a UDP classification
// server and the load generator that drives it, the commodity-socket
// translation of the paper's receive-microengine / classification-
// microengine split (and NuevoMatch's classifier-server / load-generator
// pair). The server assembles datagrams into segment buffers, decodes
// them through internal/wire, streams the headers into the sharded
// engine via engine.RunStream, and echoes one verdict per request, each
// run of replies to one client in one send; the load generator paces
// rule-directed traffic at a target rate and folds every reply into a
// round-trip latency histogram.
package iofront

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/pcapio"
	"repro/internal/rules"
	"repro/internal/wire"
)

// ServerConfig configures Serve.
type ServerConfig struct {
	// Engine is passed through to engine.RunStream.
	Engine engine.Config
	// Echo controls whether verdicts are sent back to the requester.
	// Decode-error replies are sent regardless — a malformed request is
	// a protocol conversation, not traffic.
	Echo bool
}

// readDeadline bounds how long a pull waits for the rest of its receive
// batch when traffic is light: tail latency at light load without
// spinning the receive loop. Under load a pull fills its receive batch
// well before the deadline, and returns at once.
const readDeadline = 500 * time.Microsecond

// replyRingBits sizes the reply ring: at most 1<<replyRingBits headers
// wait for their replies at once.
const replyRingBits = 15

// ServeReport is the server's accounting after a Serve returns. Every
// received datagram is accounted exactly once, and Check verifies it.
type ServeReport struct {
	// Received counts request datagrams read off the socket.
	Received int
	// DecodeErrors counts requests whose frame the wire decoder
	// rejected; each was answered VerdictDecodeError and never reached
	// the engine.
	DecodeErrors int
	// Offered counts headers handed to the engine: Received − DecodeErrors.
	Offered int
	// Classified, Shed, Canceled, Panics split Offered by outcome.
	Classified, Shed, Canceled, Panics int
	// Replies counts reply datagrams written (0 with Echo off except
	// decode-error replies).
	Replies int
	// GSOReplies counts the replies among them that left as segments of
	// one UDP GSO send, a run of two or more to one client in one flush.
	// Traffic from many clients gives short runs, and GSO saves nothing.
	GSOReplies int
	// GSOOff reports that the kernel refused a GSO send for a reason not
	// tied to the destination, so replies went out one datagram each from
	// then on.
	GSOOff bool

	// Stats is the underlying engine accounting.
	Stats engine.Stats
}

// Check verifies the conservation identities: no datagram is ever
// silently dropped between the socket and the verdict.
func (r ServeReport) Check() error {
	if r.DecodeErrors+r.Offered != r.Received {
		return fmt.Errorf("iofront: %d decode errors + %d offered != %d received",
			r.DecodeErrors, r.Offered, r.Received)
	}
	if r.Classified+r.Shed+r.Canceled+r.Panics != r.Offered {
		return fmt.Errorf("iofront: %d classified + %d shed + %d canceled + %d panicked != %d offered",
			r.Classified, r.Shed, r.Canceled, r.Panics, r.Offered)
	}
	return nil
}

// replyMeta is the per-packet reply routing the engine never sees: the
// request token and where to send the verdict. Next writes it into the
// ring slot of the header's sequence number and sets busy; reply reads it
// by the result's Seq on the emit goroutine and then clears busy. Results
// may come out in any order, so each slot frees on its own.
type replyMeta struct {
	token uint64
	addr  netip.AddrPort
	busy  atomic.Bool
}

// maxRun bounds the reply arena, and with it a GSO send's segments.
const maxRun = 64

// replyWriter writes runs of replies to one conn; writeRun is per OS
// (sock_linux.go, sock_other.go). It is safe for concurrent use.
type replyWriter struct {
	conn       *net.UDPConn
	noGSO      atomic.Bool  // set once GSO is found at fault for a refused send
	gsoReplies atomic.Int64 // reply datagrams sent as segments of a GSO send
}

// writeEach writes a run of replies one datagram each and reports how
// many went out.
func (w *replyWriter) writeEach(b []byte, addr netip.AddrPort) int {
	sent := 0
	for ; len(b) >= pcapio.ReplyLen; b = b[pcapio.ReplyLen:] {
		if _, err := w.conn.WriteToUDPAddrPort(b[:pcapio.ReplyLen], addr); err == nil {
			sent++
		}
	}
	return sent
}

// replyArena holds replies until a flush writes them out, one writeRun
// per run of equal destination. It belongs to one goroutine.
type replyArena struct {
	w     *replyWriter
	buf   [maxRun * pcapio.ReplyLen]byte
	addrs [maxRun]netip.AddrPort
	n     int
	sent  int // reply datagrams written
}

// add queues one reply, flushing first if the arena is full.
func (a *replyArena) add(token uint64, verdict int32, addr netip.AddrPort) {
	if a.n == maxRun {
		a.flush()
	}
	pcapio.PutReply(a.buf[a.n*pcapio.ReplyLen:], token, verdict)
	a.addrs[a.n] = addr
	a.n++
}

// flush writes every queued reply and empties the arena.
func (a *replyArena) flush() {
	for lo, hi := 0, 0; lo < a.n; lo = hi {
		for hi = lo + 1; hi < a.n && a.addrs[hi] == a.addrs[lo]; hi++ {
		}
		a.sent += a.w.writeRun(a.buf[lo*pcapio.ReplyLen:hi*pcapio.ReplyLen], a.addrs[lo])
	}
	a.n = 0
}

// udpSource adapts a UDP socket to engine.Source: each pull reads one
// receive batch, up to maxRun datagrams and always fewer than the engine
// offered (or one, when it offers a single slot), under a read deadline.
// It decodes each datagram as it arrives, answers malformed ones before it
// returns, and files reply metadata in the ring for the rest. So every
// pull of more than one slot is short, a batch boundary (a pull of one
// fills a batch of one): the engine sends its requests to the
// shards at once, and none waits in a half-built batch for a later
// receive (see engine.Source). Verdict replies collect in an arena of
// their own on the emit goroutine until the engine calls Flush.
type udpSource struct {
	conn     *net.UDPConn
	deadline time.Duration
	ring     []replyMeta
	mask     uint64
	wake     chan struct{} // signalled by Flush, after replies freed slots

	// buf holds the datagram being decoded; its spare byte is how an
	// oversize request shows (ParseRequest refuses it).
	buf     [pcapio.MaxRequestLen + 1]byte
	errs    replyArena // decode-error replies, source goroutine
	replies replyArena // verdict replies, emit goroutine

	received     int
	decodeErrors int
	offered      int  // also the sequence number of the next header
	short        bool // the last Next returned a short fill
	closed       bool
}

func (s *udpSource) Next(hs []rules.Header) (int, bool) {
	if s.closed {
		return 0, false
	}
	// Wait for a busy slot only after a short return: the engine flushed
	// every half-built batch then, so each pending reply is on its way and
	// a Flush follows it. After a full return the header holding the slot
	// may sit in a half-built batch that only a short pull sends.
	for s.short && s.ring[uint64(s.offered)&s.mask].busy.Load() {
		<-s.wake
	}
	// One deadline covers the whole batch: every read until it fires
	// shares the same absolute cutoff, so arm it once, not per datagram
	// (a syscall per packet on the receive path).
	if err := s.conn.SetReadDeadline(time.Now().Add(s.deadline)); err != nil {
		s.closed = true
		return 0, false
	}
	n, limit := 0, receiveBatch(len(hs))
	// A pull stops short at the first slot still waiting for its reply.
	for n < limit && !s.ring[uint64(s.offered)&s.mask].busy.Load() {
		m, addr, err := s.conn.ReadFromUDPAddrPort(s.buf[:])
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				break // idle: hand back a short fill so the engine flushes
			}
			s.closed = true // socket closed or broken: end of stream
			break
		}
		s.received++
		token, frame, err := pcapio.ParseRequest(s.buf[:m])
		if err != nil {
			s.decodeErrors++
			s.errs.add(0, pcapio.VerdictDecodeError, addr)
			continue
		}
		h, err := wire.ParseFrame(frame)
		if err != nil {
			s.decodeErrors++
			s.errs.add(token, pcapio.VerdictDecodeError, addr)
			continue
		}
		slot := &s.ring[uint64(s.offered)&s.mask]
		slot.token, slot.addr = token, addr
		slot.busy.Store(true)
		hs[n] = h
		n++
		s.offered++
	}
	s.errs.flush()
	s.short = n < len(hs)
	return n, !s.closed
}

// receiveBatch is how many datagrams a pull offered n slots reads at
// most: maxRun, and fewer than n so that the pull is short.
func receiveBatch(n int) int { return max(1, min(maxRun, n-1)) }

// reply answers result r from its ring slot, when echo is set, and then
// frees the slot. It runs on the emit goroutine.
func (s *udpSource) reply(r engine.Result, echo bool) {
	m := &s.ring[r.Seq&s.mask]
	if echo {
		verdict := pcapio.VerdictShed
		if r.Err == nil {
			verdict = int32(r.Match) // rule index, or −1 == VerdictNoMatch
		}
		// Shed, canceled or panicked packets all present to the client as
		// VerdictShed — "not classified, resend if you care" — rather than
		// leaking server internals.
		s.replies.add(m.token, verdict, m.addr)
	}
	m.busy.Store(false)
}

// newUDPSource is the source over conn, with a read deadline per pull and
// a reply ring of 1<<ringBits slots.
func newUDPSource(conn *net.UDPConn, deadline time.Duration, ringBits uint) *udpSource {
	// Decode-error replies are written on the dispatcher goroutine and
	// verdict replies on the emitter goroutine, so each side owns an arena;
	// the writer between them is concurrency-safe.
	w := &replyWriter{conn: conn}
	return &udpSource{
		conn:     conn,
		deadline: deadline,
		ring:     make([]replyMeta, 1<<ringBits),
		mask:     1<<ringBits - 1,
		wake:     make(chan struct{}, 1),
		errs:     replyArena{w: w},
		replies:  replyArena{w: w},
	}
}

// Flush writes the buffered verdict replies and wakes a Next waiting for
// a slot. The engine calls it on the emit goroutine whenever the emit
// stage runs dry, and after the last result.
func (s *udpSource) Flush() {
	s.replies.flush()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Serve classifies datagrams arriving on conn until ctx is canceled
// (cancellation is the normal shutdown path and is not reported as an
// error). The caller keeps ownership of conn.
func Serve(ctx context.Context, conn *net.UDPConn, cl engine.Classifier, cfg ServerConfig) (ServeReport, error) {
	src := newUDPSource(conn, readDeadline, replyRingBits)
	st, err := engine.RunStream(ctx, cl, cfg.Engine, src, func(r engine.Result) { src.reply(r, cfg.Echo) })
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		err = nil // cancellation is how a serve run ends
	}

	report := ServeReport{
		Received:     src.received,
		DecodeErrors: src.decodeErrors,
		Offered:      src.offered,
		Classified:   st.Packets,
		Shed:         st.Shed,
		Canceled:     st.Canceled,
		Panics:       st.Panics,
		Replies:      src.errs.sent + src.replies.sent,
		GSOReplies:   int(src.replies.w.gsoReplies.Load()),
		GSOOff:       src.replies.w.noGSO.Load(),
		Stats:        st,
	}
	if err == nil {
		err = report.Check()
	}
	return report, err
}

// ListenAndServe binds a UDP socket on addr, announces it on startup
// (the l-NIC server prints its ready line for the same reason: the load
// generator scrapes it), and serves until ctx cancels.
func ListenAndServe(ctx context.Context, addr string, cl engine.Classifier, cfg ServerConfig, announce *os.File) (ServeReport, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return ServeReport{}, fmt.Errorf("iofront: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return ServeReport{}, fmt.Errorf("iofront: %w", err)
	}
	defer conn.Close()
	if announce != nil {
		fmt.Fprintf(announce, "iofront: serving on %s\n", conn.LocalAddr())
	}
	return Serve(ctx, conn, cl, cfg)
}
