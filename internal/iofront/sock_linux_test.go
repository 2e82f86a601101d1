package iofront

import (
	"net"
	"net/netip"
	"testing"

	"repro/internal/pcapio"
)

// writeRuns flushes replies to clients in the given destination order
// through a fresh arena over w, and returns how many datagrams it wrote.
func writeRuns(w *replyWriter, clients []*net.UDPConn, order []int) int {
	a := replyArena{w: w}
	for i, who := range order {
		a.add(uint64(i), int32(who), clients[who].LocalAddr().(*net.UDPAddr).AddrPort())
	}
	a.flush()
	return a.sent
}

// checkRuns reads each client's replies and checks that it got exactly
// the tokens the order sent it.
func checkRuns(t *testing.T, clients []*net.UDPConn, order []int) {
	t.Helper()
	for who, c := range clients {
		var want []uint64
		for i, w := range order {
			if w == who {
				want = append(want, uint64(i))
			}
		}
		got := readReplies(t, c, len(want))
		for _, token := range want {
			if v, ok := got[token]; !ok || v != int32(who) {
				t.Fatalf("client %d token %d: reply %d (present %v)", who, token, v, ok)
			}
		}
	}
}

// runOrder is 64 replies, the arena's capacity, in runs of one to five
// that alternate between two clients.
func runOrder() []int {
	var order []int
	for run, who := 1, 0; len(order) < maxRun; run, who = run%5+1, 1-who {
		for i := 0; i < run && len(order) < maxRun; i++ {
			order = append(order, who)
		}
	}
	return order
}

func serverAndClients(t *testing.T) (*net.UDPConn, []*net.UDPConn) {
	t.Helper()
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.LocalAddr().(*net.UDPAddr)
	return srv, []*net.UDPConn{dial(t, addr), dial(t, addr)}
}

// A run of replies to one destination goes out as one GSO send that the
// kernel splits: every segment counts as a reply datagram.
func TestGSORunSplitsIntoReplies(t *testing.T) {
	srv, clients := serverAndClients(t)
	w := &replyWriter{conn: srv}
	order := runOrder()
	if sent := writeRuns(w, clients, order); sent != len(order) {
		t.Fatalf("%d reply datagrams written, want %d", sent, len(order))
	}
	if w.noGSO.Load() {
		t.Skip("the kernel refused UDP GSO on loopback; the per-datagram writer served the runs")
	}
	checkRuns(t, clients, order)
	inRuns := 0
	for i, who := range order {
		if (i > 0 && order[i-1] == who) || (i+1 < len(order) && order[i+1] == who) {
			inRuns++
		}
	}
	if got := w.gsoReplies.Load(); got != int64(inRuns) {
		t.Fatalf("%d replies counted as GSO segments, want the %d in runs of two or more", got, inRuns)
	}
}

// The writer a GSO refusal leaves behind: one datagram per reply.
func TestPerDatagramWriter(t *testing.T) {
	srv, clients := serverAndClients(t)
	w := &replyWriter{conn: srv}
	w.noGSO.Store(true)
	order := runOrder()
	if sent := writeRuns(w, clients, order); sent != len(order) {
		t.Fatalf("%d reply datagrams written, want %d", sent, len(order))
	}
	checkRuns(t, clients, order)
	if !w.noGSO.Load() {
		t.Fatal("the per-datagram writer turned GSO back on")
	}
}

// A GSO send the destination refuses (the kernel answers EINVAL for port
// 0) fails its run but leaves GSO on for every other client.
func TestRefusedDestinationKeepsGSO(t *testing.T) {
	srv, clients := serverAndClients(t)
	w := &replyWriter{conn: srv}
	var b [2 * pcapio.ReplyLen]byte
	pcapio.PutReply(b[:], 1, 0)
	pcapio.PutReply(b[pcapio.ReplyLen:], 2, 0)
	if sent := w.writeRun(b[:], netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 0)); sent != 0 {
		t.Fatalf("%d replies sent to port 0", sent)
	}
	if w.noGSO.Load() {
		t.Fatal("a refused destination turned GSO off for the conn")
	}
	order := runOrder()
	if sent := writeRuns(w, clients, order); sent != len(order) {
		t.Fatalf("%d reply datagrams written, want %d", sent, len(order))
	}
	checkRuns(t, clients, order)
}
