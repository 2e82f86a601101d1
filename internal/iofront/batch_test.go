package iofront

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/pcapio"
	"repro/internal/rules"
	"repro/internal/wire"
)

// sourcePair is a udpSource on a fresh loopback socket whose pulls wait
// at most a second for traffic and whose reply ring is Serve's.
func sourcePair(t *testing.T, laddr *net.UDPAddr) (*udpSource, *net.UDPAddr) {
	t.Helper()
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newUDPSource(conn, time.Second, replyRingBits), conn.LocalAddr().(*net.UDPAddr)
}

// dial opens a client socket connected to addr.
func dial(t *testing.T, addr *net.UDPAddr) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func request(token uint64, h rules.Header) []byte {
	return pcapio.AppendRequest(nil, token, wire.BuildFrame(h))
}

// answer replies to the last len(hs) offered headers with their oracle
// verdicts and flushes: the emit side of one pull.
func answer(s *udpSource, rs *rules.RuleSet, hs []rules.Header) {
	first := s.offered - len(hs)
	for i, h := range hs {
		s.reply(engine.Result{Seq: uint64(first + i), Match: rs.Match(h)}, true)
	}
	s.Flush()
}

// readReplies reads n replies from c into a token → verdict map and fails
// on a duplicate token or on any reply beyond the n expected.
func readReplies(t *testing.T, c *net.UDPConn, n int) map[uint64]int32 {
	t.Helper()
	got := make(map[uint64]int32, n)
	buf := make([]byte, 64)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(got) < n {
		m, err := c.Read(buf)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(got), n, err)
		}
		token, verdict, err := pcapio.ParseReply(buf[:m])
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[token]; dup {
			t.Fatalf("token %d answered twice", token)
		}
		got[token] = verdict
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if m, err := c.Read(buf); err == nil {
		t.Fatalf("an extra %d-byte reply after the %d expected", m, n)
	}
	return got
}

// Two clients' requests interleave inside one pull, so one flush mixes
// destinations: each client must get exactly its own replies.
func TestPullInterleavesTwoClients(t *testing.T) {
	rs, _, headers := loadFixtures(t, 40)
	s, addr := sourcePair(t, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	a, b := dial(t, addr), dial(t, addr)
	// Client a sends tokens 0..k, client b tokens 1000+..., in a pattern
	// that gives runs of one, two and three to each destination.
	pattern := []int{0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1}
	var hs []rules.Header
	want := [2]map[uint64]int32{{}, {}}
	for i, h := range headers {
		who := pattern[i%len(pattern)]
		token := uint64(1000*who + i)
		if _, err := [2]*net.UDPConn{a, b}[who].Write(request(token, h)); err != nil {
			t.Fatal(err)
		}
		want[who][token] = int32(rs.Match(onWire(h)))
		hs = append(hs, onWire(h))
	}
	// A pull reads fewer datagrams than it is offered slots.
	got := make([]rules.Header, len(headers)+1)
	n, ok := s.Next(got)
	if n != len(headers) || !ok {
		t.Fatalf("pull returned %d of %d (ok %v)", n, len(headers), ok)
	}
	answer(s, rs, hs)
	if s.replies.sent != len(headers) {
		t.Fatalf("%d reply datagrams written, want %d", s.replies.sent, len(headers))
	}
	for who, c := range [2]*net.UDPConn{a, b} {
		replies := readReplies(t, c, len(want[who]))
		for token, v := range want[who] {
			if got, ok := replies[token]; !ok || got != v {
				t.Fatalf("client %d token %d: reply %d (present %v), oracle %d", who, token, got, ok, v)
			}
		}
	}
}

// The same over Serve, ordered and not: two clients at once,
// oracle-exact, and the server writes one reply datagram per request
// received. Client i sends the packets whose oracle verdict has parity i,
// so a reply routed to the wrong client carries a wrong verdict. The
// clients are paced so that a slow (-race) server still hears from both:
// an unpaced burst overflows its socket buffer.
func TestLoopbackTwoClients(t *testing.T) {
	rs, tree, headers := loadFixtures(t, 3000)
	var halves [2][]rules.Header
	for _, h := range headers {
		parity := rs.Match(onWire(h)) & 1
		halves[parity] = append(halves[parity], h)
	}
	eachOrder(t, func(t *testing.T, ordered bool) {
		addr, stop := startServer(t, tree, ServerConfig{Engine: engine.Config{Shards: 2, PreserveOrder: ordered}, Echo: true})
		var reps [2]LoadReport
		var errs [2]error
		var wg sync.WaitGroup
		for i := range halves {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = RunLoad(context.Background(), LoadConfig{Addr: addr, Headers: halves[i], Rate: 20000})
			}()
		}
		wg.Wait()
		srep := stop()
		answered := 0
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if rep.Replies == 0 || rep.DecodeErrors != 0 {
				t.Fatalf("client %d: %d replies, %d decode errors", i, rep.Replies, rep.DecodeErrors)
			}
			checkVerdicts(t, rs, halves[i], rep.Verdicts)
			answered += rep.Replies
		}
		if srep.Replies != srep.Received {
			t.Fatalf("server wrote %d replies for %d requests", srep.Replies, srep.Received)
		}
		if answered > srep.Replies {
			t.Fatalf("clients saw %d replies, server wrote %d", answered, srep.Replies)
		}
	})
}

// An oversize request in the middle of a pull is answered
// VerdictDecodeError, and its neighbours are classified.
func TestPullOversizeRequestMidBatch(t *testing.T) {
	rs, _, headers := loadFixtures(t, 2)
	s, addr := sourcePair(t, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	c := dial(t, addr)
	oversize := make([]byte, pcapio.MaxRequestLen+1)
	for _, req := range [][]byte{request(1, headers[0]), oversize, request(3, headers[1])} {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	// Sent before the pull starts, so one pull offered a slot more than
	// the headers reads all three.
	hs := make([]rules.Header, 3)
	if n, _ := s.Next(hs); n != 2 {
		t.Fatalf("pull returned %d headers, want 2", n)
	}
	if s.received != 3 || s.decodeErrors != 1 || s.offered != 2 {
		t.Fatalf("received %d, decode errors %d, offered %d; want 3, 1, 2", s.received, s.decodeErrors, s.offered)
	}
	answer(s, rs, []rules.Header{onWire(headers[0]), onWire(headers[1])})
	replies := readReplies(t, c, 3)
	if v := replies[0]; v != pcapio.VerdictDecodeError {
		t.Errorf("oversize request answered %d, want %d", v, pcapio.VerdictDecodeError)
	}
	for token, h := range map[uint64]rules.Header{1: headers[0], 3: headers[1]} {
		if want := int32(rs.Match(onWire(h))); replies[token] != want {
			t.Errorf("token %d: verdict %d, oracle %d", token, replies[token], want)
		}
	}
}

// A dual-stack socket sees a v4 client as a v4-mapped address and must
// reply through it; a v6 client replies as itself.
func TestDualStackReplies(t *testing.T) {
	if ln, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback}); err != nil {
		t.Skipf("::1 unavailable: %v", err)
	} else {
		ln.Close()
	}
	rs, _, headers := loadFixtures(t, 3)
	s, addr := sourcePair(t, &net.UDPAddr{IP: net.IPv6unspecified})
	for _, ip := range []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback} {
		c := dial(t, &net.UDPAddr{IP: ip, Port: addr.Port})
		for i, h := range headers {
			if _, err := c.Write(request(uint64(i), h)); err != nil {
				t.Fatal(err)
			}
		}
		hs := make([]rules.Header, len(headers)+1) // a pull reads fewer than it is offered
		if n, _ := s.Next(hs); n != len(headers) {
			t.Fatalf("%v: pull returned %d of %d", ip, n, len(headers))
		}
		hs = hs[:len(headers)]
		from := s.ring[uint64(s.offered-len(headers))&s.mask].addr.Addr()
		if want := ip.To4() != nil; from.Is4In6() != want {
			t.Fatalf("%v client arrived from %v", ip, from)
		}
		answer(s, rs, hs)
		replies := readReplies(t, c, len(headers))
		for i, h := range headers {
			if want := int32(rs.Match(onWire(h))); replies[uint64(i)] != want {
				t.Fatalf("%v token %d: verdict %d, oracle %d", ip, i, replies[uint64(i)], want)
			}
		}
	}
}

// A warmed pull of a full batch and the flush of its replies allocate
// nothing.
func TestServeSteadyZeroAlloc(t *testing.T) {
	const batch = 64
	_, _, headers := loadFixtures(t, batch)
	s, addr := sourcePair(t, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	c := dial(t, addr)
	reqs := make([][]byte, batch)
	for i, h := range headers {
		reqs[i] = request(uint64(i), h)
	}
	hs := make([]rules.Header, batch)
	buf := make([]byte, 64)
	c.SetReadDeadline(time.Now().Add(time.Minute))
	round := func() {
		for _, r := range reqs {
			if _, err := c.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		n, _ := s.Next(hs)
		for i := range n {
			s.reply(engine.Result{Seq: uint64(s.offered - n + i)}, true)
		}
		s.Flush()
		for range n {
			if _, err := c.Read(buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 3 {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("%.1f allocs per pull and flush, want 0", allocs)
	}
}
