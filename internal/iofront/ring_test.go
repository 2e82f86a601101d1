package iofront

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/rules"
)

// loneShape is the engine the lone-flow tests serve through: two shards
// whose batches fill at two headers, with a one-deep job ring.
func loneShape(ordered bool) engine.Config {
	return engine.Config{Shards: 2, QueueDepth: 1, BatchSize: 2, PreserveOrder: ordered}
}

// noTenants knows no tenant; RunTenants still reports each packet's shard.
type noTenants struct{}

func (noTenants) Lane(uint32) engine.TenantLane { return nil }

// shardOf is the shard a two-shard engine dispatches h to.
func shardOf(t *testing.T, h rules.Header) int {
	t.Helper()
	shard := -1
	_, err := engine.RunTenants(context.Background(), noTenants{}, engine.Config{Shards: 2},
		[]engine.TenantPacket{{Header: h}}, func(r engine.TenantResult) { shard = r.Shard })
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// lateFlow classifies like cl but holds flow x back 20 ms, so on an
// unordered engine the results after x's overtake it.
type lateFlow struct {
	cl rules.Classifier
	x  rules.Header
}

func (l lateFlow) Classify(h rules.Header) int {
	if h == l.x {
		time.Sleep(20 * time.Millisecond)
	}
	return l.cl.Classify(h)
}

// loneFlowThenBurst returns the classifier, a flow X, and the requests:
// one from X, token 0, then 200 from a flow Y that a two-shard engine
// serves on the other shard, tokens 1 to 200, with each token's oracle
// verdict. Pulled in full batches, X waits alone in a half-built batch
// while Y's batches fill and leave: only a short pull sends it.
func loneFlowThenBurst(t *testing.T) (*expcuts.Tree, rules.Header, [][]byte, map[uint64]int32) {
	t.Helper()
	rs, tree, headers := loadFixtures(t, 64)
	x := onWire(headers[0])
	y := x
	for _, h := range headers[1:] {
		if shardOf(t, onWire(h)) != shardOf(t, x) {
			y = onWire(h)
			break
		}
	}
	if y == x {
		t.Fatal("no fixture flow lands on the other shard")
	}
	reqs := [][]byte{request(0, x)}
	want := map[uint64]int32{0: int32(rs.Match(x))}
	for token := uint64(1); token <= 200; token++ {
		reqs = append(reqs, request(token, y))
		want[token] = int32(rs.Match(y))
	}
	return tree, x, reqs, want
}

// queueRequests opens a loopback server socket, with room for every
// request, and sends them all to it from one client before anything
// reads.
func queueRequests(t *testing.T, reqs [][]byte) (server, client *net.UDPConn) {
	t.Helper()
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	server.SetReadBuffer(1 << 20) // best effort: the default holds about 256 requests
	client = dial(t, server.LocalAddr().(*net.UDPAddr))
	for _, r := range reqs {
		if _, err := client.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	return server, client
}

// checkAnswered reads one reply per request and fails on a lost,
// repeated or wrong one.
func checkAnswered(t *testing.T, client *net.UDPConn, want map[uint64]int32) {
	t.Helper()
	got := readReplies(t, client, len(want))
	for token, v := range want {
		if got[token] != v {
			t.Fatalf("token %d: verdict %d, oracle %d", token, got[token], v)
		}
	}
}

// A lone request on an idle shard, then a burst to the other one, all
// queued before Serve starts: every request is answered, and Serve
// returns promptly on cancel.
func TestServeLoneFlowThenBurst(t *testing.T) {
	tree, _, reqs, want := loneFlowThenBurst(t)
	eachOrder(t, func(t *testing.T, ordered bool) {
		server, client := queueRequests(t, reqs)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := Serve(ctx, server, tree, ServerConfig{Engine: loneShape(ordered), Echo: true})
			done <- err
		}()
		checkAnswered(t, client, want)
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Serve still running 2 s after cancel")
		}
	})
}

// Rings smaller than, equal to and larger than a pull, on the same
// traffic with X answered late: a pull stops at a slot whose reply is
// pending, waits for it only after a short return, and never hands a slot
// to a second header before its reply has read it.
func TestSmallReplyRing(t *testing.T) {
	tree, x, reqs, want := loneFlowThenBurst(t)
	cl := lateFlow{tree, x}
	for bits := range uint(4) {
		t.Run(fmt.Sprintf("%d-slot", 1<<bits), func(t *testing.T) {
			eachOrder(t, func(t *testing.T, ordered bool) {
				server, client := queueRequests(t, reqs)
				src := newUDPSource(server, readDeadline, bits)
				type outcome struct {
					st  engine.Stats
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					st, err := engine.RunStream(context.Background(), cl, loneShape(ordered), src,
						func(r engine.Result) { src.reply(r, true) })
					done <- outcome{st, err}
				}()
				checkAnswered(t, client, want)
				server.Close() // ends the stream
				select {
				case o := <-done:
					if o.err != nil || o.st.Packets != len(reqs) {
						t.Fatalf("classified %d of %d: %v", o.st.Packets, len(reqs), o.err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("RunStream still running 2 s after the socket closed")
				}
			})
		})
	}
}

// A burst of as many whole receive batches as fit in maxRun requests,
// then silence, under a read deadline far beyond the test's: every
// request is answered at once on every engine shape, since each socket
// pull is a batch boundary and no request waits in a half-built shard
// batch for a receive that never comes. A burst that ends mid receive
// batch would wait out the deadline in the read loop instead, the
// light-load path.
func TestBurstAnsweredWithoutDeadline(t *testing.T) {
	rs, tree, headers := loadFixtures(t, maxRun)
	for _, shards := range []int{1, 2, 4} {
		for _, size := range []int{1, 16, 64} {
			t.Run(fmt.Sprintf("%dx%d", shards, size), func(t *testing.T) {
				pull := receiveBatch(size)
				reqs := make([][]byte, maxRun/pull*pull)
				want := make(map[uint64]int32, len(reqs))
				for i := range reqs {
					h := onWire(headers[i])
					reqs[i] = request(uint64(i), h)
					want[uint64(i)] = int32(rs.Match(h))
				}
				server, client := queueRequests(t, reqs)
				src := newUDPSource(server, 10*time.Second, 8)
				cfg := engine.Config{Shards: shards, BatchSize: size, PreserveOrder: true}
				done := make(chan error, 1)
				go func() {
					_, err := engine.RunStream(context.Background(), tree, cfg, src,
						func(r engine.Result) { src.reply(r, true) })
					done <- err
				}()
				checkAnswered(t, client, want)
				server.Close() // ends the stream
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
