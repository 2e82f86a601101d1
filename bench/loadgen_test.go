package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/wire"
)

func testFrames() [][]byte {
	return wire.BuildTrace([]rules.Header{{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: rules.ProtoUDP}})
}

// echoWith runs the generator against an echo server that calls pause
// after reading each request.
func echoWith(t *testing.T, cfg loadConfig, pause func(n int)) loadResult {
	t.Helper()
	server, client, err := loopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		echoServe(server, pause)
	}()
	res, err := runLoad(client, cfg)
	server.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A server that freezes for 50 ms must cost every request that fell due
// during the freeze, not just the one that was in flight: the open loop
// keeps to its schedule and times each request from its due instant.
func TestOpenLoopChargesAStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		rate  = 2000
		stall = 50 * time.Millisecond
		timed = 400 * time.Millisecond
	)
	cfg := loadConfig{rate: rate, warm: 50 * time.Millisecond, timed: timed, frames: testFrames()}
	res := echoWith(t, cfg, func(n int) {
		if n == 300 { // due 150 ms in: inside the timed window
			time.Sleep(stall)
		}
	})
	if want := int64(timed.Seconds() * rate); res.offered != want {
		t.Errorf("offered %d requests in the window, want every slot of the schedule: %d", res.offered, want)
	}
	if res.lost() != 0 {
		t.Errorf("%d requests lost on loopback", res.lost())
	}
	// 100 requests fall due during the stall; those due in its first 40 ms
	// wait at least 10 ms. A generator that stopped sending while the
	// server was silent would show one.
	slow := 0
	for _, ns := range res.rttNs {
		if ns >= float64(10*time.Millisecond) {
			slow++
		}
	}
	if min := int(0.040 * rate); slow < min {
		t.Errorf("%d requests saw >= 10 ms, want at least the %d due in the first 40 ms of the stall", slow, min)
	}
	if res.over5ms < int64(slow) {
		t.Errorf("over5ms = %d, below the %d requests that took >= 10 ms", res.over5ms, slow)
	}
}

func TestClosedLoopNeverExceedsItsWindow(t *testing.T) {
	const window = 16
	var deepest atomic.Int64
	cfg := loadConfig{closed: true, window: window, warm: 20 * time.Millisecond, timed: 200 * time.Millisecond, frames: testFrames()}
	res := echoWith(t, cfg, func(n int) {
		if n == 100 {
			time.Sleep(30 * time.Millisecond) // long enough for the sender to fill the window
		}
		deepest.Store(int64(n))
	})
	if res.maxOutstanding != window {
		t.Errorf("most outstanding = %d, want exactly the window %d (filled during the stall, never exceeded)", res.maxOutstanding, window)
	}
	if res.reclaimed != 0 || res.lost() != 0 {
		t.Errorf("lossless by construction, yet %d written off and %d lost", res.reclaimed, res.lost())
	}
	if res.offered == 0 || res.answered != res.offered {
		t.Errorf("offered %d, answered %d", res.offered, res.answered)
	}
	if deepest.Load() < 200 {
		t.Errorf("the loop stopped after %d requests", deepest.Load())
	}
}

// When the server swallows a full window the loop must write it off and
// go on, and the loss must show in the result.
func TestClosedLoopWritesOffASilentWindow(t *testing.T) {
	server, client, err := loopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	defer client.Close()
	cfg := loadConfig{closed: true, window: 4, timed: 3 * lossTimeout, frames: testFrames()}
	res, err := runLoad(client, cfg) // nobody reads the server socket
	if err != nil {
		t.Fatal(err)
	}
	if res.reclaimed < 4 || res.answered != 0 || res.lost() != res.offered || res.over5ms != res.offered {
		t.Errorf("silent server: %+v", res)
	}
	if res.maxOutstanding > 4 {
		t.Errorf("most outstanding = %d with window 4", res.maxOutstanding)
	}
}
