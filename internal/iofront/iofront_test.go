package iofront

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/pcapio"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
)

func loadFixtures(t *testing.T, packets int) (*rules.RuleSet, *expcuts.Tree, []rules.Header) {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 200, Seed: 2001})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: packets, Seed: 2002, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return rs, tree, tr.Headers
}

// onWire is the header after its frame round trip: non-TCP/UDP protocols
// carry no ports on the wire.
func onWire(h rules.Header) rules.Header {
	if h.Proto != rules.ProtoTCP && h.Proto != rules.ProtoUDP {
		h.SrcPort, h.DstPort = 0, 0
	}
	return h
}

// startServer serves cl on a loopback socket and returns its address
// plus a stop function that shuts it down and hands back the report.
func startServer(t *testing.T, cl engine.Classifier, cfg ServerConfig) (string, func() ServeReport) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		rep ServeReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := Serve(ctx, conn, cl, cfg)
		done <- outcome{rep, err}
	}()
	return conn.LocalAddr().String(), func() ServeReport {
		cancel()
		o := <-done
		conn.Close()
		if o.err != nil {
			t.Fatalf("serve: %v", o.err)
		}
		return o.rep
	}
}

// eachOrder runs f as an ordered and an unordered subtest.
func eachOrder(t *testing.T, f func(t *testing.T, ordered bool)) {
	for _, ordered := range []bool{true, false} {
		name := "unordered"
		if ordered {
			name = "ordered"
		}
		t.Run(name, func(t *testing.T) { f(t, ordered) })
	}
}

// checkVerdicts fails on any answered, classified packet whose verdict is
// not the linear oracle's.
func checkVerdicts(t *testing.T, rs *rules.RuleSet, headers []rules.Header, verdicts []int32) {
	t.Helper()
	for i, v := range verdicts {
		if v == VerdictNone || v == pcapio.VerdictShed {
			continue
		}
		if want := int32(rs.Match(onWire(headers[i]))); v != want {
			t.Fatalf("packet %d: verdict %d, oracle %d", i, v, want)
		}
	}
}

func TestLoopbackOracleExact(t *testing.T) {
	rs, tree, headers := loadFixtures(t, 3000)
	eachOrder(t, func(t *testing.T, ordered bool) {
		addr, stop := startServer(t, tree, ServerConfig{
			Engine: engine.Config{Shards: 2, PreserveOrder: ordered},
			Echo:   true,
		})
		rep, err := RunLoad(context.Background(), LoadConfig{Addr: addr, Headers: headers})
		if err != nil {
			t.Fatal(err)
		}
		srep := stop()

		if rep.Sent != len(headers) {
			t.Fatalf("sent %d of %d", rep.Sent, len(headers))
		}
		if rep.Replies+rep.Lost != rep.Sent {
			t.Fatalf("replies %d + lost %d != sent %d", rep.Replies, rep.Lost, rep.Sent)
		}
		if rep.Replies == 0 {
			t.Fatal("no replies over loopback")
		}
		if rep.DecodeErrors != 0 || srep.DecodeErrors != 0 {
			t.Fatalf("decode errors on well-formed traffic: client %d server %d", rep.DecodeErrors, srep.DecodeErrors)
		}
		// Every answered packet must carry the linear oracle's verdict.
		checkVerdicts(t, rs, headers, rep.Verdicts)
		if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.P999 < rep.P99 {
			t.Fatalf("implausible latency quantiles: p50 %v p99 %v p999 %v", rep.P50, rep.P99, rep.P999)
		}
		// Server-side conservation: Check ran inside Serve, and every
		// request received was answered. Across the socket, loopback may
		// still drop datagrams under this unpaced burst, so inequalities,
		// not equalities.
		if srep.Replies != srep.Received {
			t.Fatalf("server wrote %d replies for %d requests", srep.Replies, srep.Received)
		}
		if srep.Received > rep.Sent {
			t.Fatalf("server received %d of %d sent", srep.Received, rep.Sent)
		}
		if srep.Replies < rep.Replies {
			t.Fatalf("server wrote %d replies, client saw %d", srep.Replies, rep.Replies)
		}
	})
}

func TestLoopbackPacedRate(t *testing.T) {
	_, tree, headers := loadFixtures(t, 400)
	addr, stop := startServer(t, tree, ServerConfig{Engine: engine.Config{Shards: 1}, Echo: true})
	rate := 20000
	rep, err := RunLoad(context.Background(), LoadConfig{Addr: addr, Headers: headers, Rate: rate})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	// 400 packets at 20k pps is 20ms of pacing; the achieved rate must
	// land at or under the target (pacing never bursts above it) and the
	// run must actually have been stretched out.
	if rep.AchievedPPS > float64(rate)*1.25 {
		t.Fatalf("achieved %.0f pps against a %d pps target", rep.AchievedPPS, rate)
	}
	if rep.Elapsed < 15*time.Millisecond {
		t.Fatalf("paced run finished in %v", rep.Elapsed)
	}
}

func TestServerAnswersMalformedRequests(t *testing.T) {
	_, tree, _ := loadFixtures(t, 10)
	addr, stop := startServer(t, tree, ServerConfig{Engine: engine.Config{Shards: 1}, Echo: true})
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A token with a garbage frame: decode error, token echoed back.
	req := pcapio.AppendRequest(nil, 99, []byte{1, 2, 3, 4})
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	m, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	token, verdict, err := pcapio.ParseReply(buf[:m])
	if err != nil {
		t.Fatal(err)
	}
	if token != 99 || verdict != pcapio.VerdictDecodeError {
		t.Fatalf("reply token %d verdict %d, want 99 / %d", token, verdict, pcapio.VerdictDecodeError)
	}

	// Shorter than a token: counted and answered (token 0), still a
	// decode error, and the books must balance.
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}

	rep := stop()
	if rep.DecodeErrors != 2 || rep.Offered != 0 {
		t.Fatalf("decode errors %d (want 2), offered %d (want 0)", rep.DecodeErrors, rep.Offered)
	}
}

func TestServeReportCheck(t *testing.T) {
	good := ServeReport{Received: 10, DecodeErrors: 2, Offered: 8, Classified: 5, Shed: 2, Canceled: 1}
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Offered = 7
	if bad.Check() == nil {
		t.Error("unbalanced receive accounting passed Check")
	}
	bad = good
	bad.Classified = 4
	if bad.Check() == nil {
		t.Error("unbalanced outcome accounting passed Check")
	}
}

func TestLoadRejectsEmptyTraffic(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("empty traffic accepted")
	}
}
