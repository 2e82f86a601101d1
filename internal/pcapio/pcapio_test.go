package pcapio

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expcuts"
	"repro/internal/pktgen"
	"repro/internal/rulegen"
	"repro/internal/rules"
	"repro/internal/wire"
)

// PcapSource must keep satisfying the engine's pull contract without
// this package importing it outside tests.
var _ engine.Source = (*PcapSource)(nil)

func TestSegmentAppendAndPacket(t *testing.T) {
	var s Segment
	pkts := [][]byte{{1, 2, 3}, {}, {4}, bytes.Repeat([]byte{9}, 300)}
	for round := 0; round < 3; round++ {
		s.Reset()
		for _, p := range pkts {
			s.Append(p)
		}
		if s.Count() != len(pkts) {
			t.Fatalf("count %d, want %d", s.Count(), len(pkts))
		}
		for i, p := range pkts {
			if !bytes.Equal(s.Packet(i), p) {
				t.Fatalf("round %d packet %d: %v != %v", round, i, s.Packet(i), p)
			}
		}
	}
}

func TestSegmentGrowCommit(t *testing.T) {
	var s Segment
	buf := s.Grow(10)
	copy(buf, "hello")
	s.Commit(5)
	s.Append([]byte("x"))
	buf = s.Grow(4)
	copy(buf, "hiya")
	s.Commit(4)
	want := []string{"hello", "x", "hiya"}
	for i, w := range want {
		if string(s.Packet(i)) != w {
			t.Fatalf("packet %d = %q, want %q", i, s.Packet(i), w)
		}
	}
	if s.Bytes() != 10 {
		t.Fatalf("bytes = %d, want 10", s.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overcommit did not panic")
		}
	}()
	s.Grow(2)
	s.Commit(3)
}

func TestZeroAllocSegmentAssembly(t *testing.T) {
	var s Segment
	pkt := bytes.Repeat([]byte{0xAB}, wire.FrameSize)
	// Warm the arena to the batch footprint, then every further batch
	// must assemble without touching the heap.
	for i := 0; i < 64; i++ {
		s.Append(pkt)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for i := 0; i < 64; i++ {
			s.Append(pkt)
			buf := s.Grow(len(pkt))
			copy(buf, pkt)
			s.Commit(len(pkt))
		}
	}); allocs != 0 {
		t.Fatalf("warmed segment assembly allocates %v per batch; must be 0", allocs)
	}
}

func traceHeaders(t *testing.T, n int) []rules.Header {
	t.Helper()
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 100, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: n, Seed: 1002, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Headers
}

// onWire is what a header looks like after a BuildFrame/ParseFrame trip:
// protocols other than TCP and UDP carry no transport ports on the wire,
// so they come back with zero ports by design.
func onWire(h rules.Header) rules.Header {
	if h.Proto != rules.ProtoTCP && h.Proto != rules.ProtoUDP {
		h.SrcPort, h.DstPort = 0, 0
	}
	return h
}

func writeCapture(t *testing.T, headers []rules.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range headers {
		if err := w.WritePacket(uint64(i)*1000, wire.BuildFrame(h)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestPcapRoundTrip(t *testing.T) {
	headers := traceHeaders(t, 500)
	capture := writeCapture(t, headers)
	r, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var seg Segment
	for i, h := range headers {
		ts, err := r.Next(&seg)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ts != uint64(i)*1000 {
			t.Fatalf("record %d: timestamp %d, want %d", i, ts, i*1000)
		}
		got, err := wire.ParseFrame(seg.Packet(i))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != onWire(h) {
			t.Fatalf("record %d: header %+v, want %+v", i, got, onWire(h))
		}
	}
	if _, err := r.Next(&seg); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// bigEndianNanosCapture hand-builds a capture in the byte order and
// timestamp flavor our writer never emits, so the reader's magic
// detection is tested against a foreign file, not our own output.
func bigEndianNanosCapture(frame []byte) []byte {
	var buf bytes.Buffer
	var hdr [pcapFileHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], magicNsec)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr[:])
	var rec [pcapRecordHeaderLen]byte
	binary.BigEndian.PutUint32(rec[0:4], 7)         // 7s
	binary.BigEndian.PutUint32(rec[4:8], 123456789) // +123456789ns
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(frame)))
	buf.Write(rec[:])
	buf.Write(frame)
	return buf.Bytes()
}

func TestPcapForeignEndiannessAndNanos(t *testing.T) {
	h := rules.Header{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: rules.ProtoTCP}
	r, err := NewReader(bytes.NewReader(bigEndianNanosCapture(wire.BuildFrame(h))))
	if err != nil {
		t.Fatal(err)
	}
	var seg Segment
	ts, err := r.Next(&seg)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(7*1e9 + 123456789); ts != want {
		t.Fatalf("timestamp %d, want %d", ts, want)
	}
	got, err := wire.ParseFrame(seg.Packet(0))
	if err != nil || got != h {
		t.Fatalf("header %+v (err %v), want %+v", got, err, h)
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     make([]byte, 10),
		"bad-magic": make([]byte, pcapFileHeaderLen),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: opened a non-pcap input", name)
		}
	}
	// Wrong link type: valid header, raw-IP capture.
	var hdr [pcapFileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicUsec)
	binary.LittleEndian.PutUint32(hdr[20:24], 101) // LINKTYPE_RAW
	if _, err := NewReader(bytes.NewReader(hdr[:])); err == nil || !strings.Contains(err.Error(), "link type") {
		t.Errorf("raw-IP capture: err = %v, want link type rejection", err)
	}
}

func TestPcapTruncatedRecord(t *testing.T) {
	headers := traceHeaders(t, 3)
	capture := writeCapture(t, headers)
	for _, cut := range []int{ // inside the last record's header, then body
		len(capture) - wire.FrameSize - 4,
		len(capture) - 4,
	} {
		r, err := NewReader(bytes.NewReader(capture[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		var seg Segment
		var lastErr error
		for {
			if _, lastErr = r.Next(&seg); lastErr != nil {
				break
			}
		}
		if lastErr == io.EOF {
			t.Errorf("cut at %d: truncated capture read as clean EOF", cut)
		}
	}
}

func TestPcapHostileCaptureLength(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	capture := buf.Bytes()
	var rec [pcapRecordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[8:12], MaxSnapLen+1)
	capture = append(capture, rec[:]...)
	r, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var seg Segment
	if _, err := r.Next(&seg); err == nil || err == io.EOF {
		t.Fatalf("hostile capture length read without error (err %v)", err)
	}
}

func TestRequestReplyCodec(t *testing.T) {
	h := rules.Header{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 4242, DstPort: 80, Proto: rules.ProtoUDP}
	frame := wire.BuildFrame(h)
	req := AppendRequest(nil, 0xDEADBEEFCAFE, frame)
	if len(req) != ReqHeaderLen+len(frame) {
		t.Fatalf("request length %d", len(req))
	}
	token, gotFrame, err := ParseRequest(req)
	if err != nil || token != 0xDEADBEEFCAFE || !bytes.Equal(gotFrame, frame) {
		t.Fatalf("request round trip: token %#x err %v", token, err)
	}
	if _, _, err := ParseRequest(req[:ReqHeaderLen-1]); err == nil {
		t.Error("short request accepted")
	}
	if _, _, err := ParseRequest(make([]byte, MaxRequestLen+1)); err == nil {
		t.Error("oversized request accepted")
	}

	var buf [ReplyLen]byte
	reply := PutReply(buf[:], 77, VerdictShed)
	token, verdict, err := ParseReply(reply)
	if err != nil || token != 77 || verdict != VerdictShed {
		t.Fatalf("reply round trip: token %d verdict %d err %v", token, verdict, err)
	}
	for _, v := range []int32{0, 12345, VerdictNoMatch, VerdictDecodeError} {
		_, verdict, err := ParseReply(PutReply(buf[:], 1, v))
		if err != nil || verdict != v {
			t.Fatalf("verdict %d round-tripped to %d (err %v)", v, verdict, err)
		}
	}
	if _, _, err := ParseReply(reply[:ReplyLen-1]); err == nil {
		t.Error("short reply accepted")
	}
}

func TestZeroAllocRequestReplyCodec(t *testing.T) {
	frame := wire.BuildFrame(rules.Header{SrcIP: 1, DstIP: 2, Proto: rules.ProtoTCP})
	reqBuf := make([]byte, 0, MaxRequestLen)
	var replyBuf [ReplyLen]byte
	if allocs := testing.AllocsPerRun(1000, func() {
		req := AppendRequest(reqBuf[:0], 42, frame)
		token, f, err := ParseRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		reply := PutReply(replyBuf[:], token, int32(len(f)))
		if _, _, err := ParseReply(reply); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("codec allocates %v per datagram; must be 0", allocs)
	}
}

func TestPcapSourceReplay(t *testing.T) {
	headers := traceHeaders(t, 1000)
	src, err := NewPcapSource(bytes.NewReader(writeCapture(t, headers)))
	if err != nil {
		t.Fatal(err)
	}
	var got []rules.Header
	hs := make([]rules.Header, 64)
	for {
		n, ok := src.Next(hs)
		got = append(got, hs[:n]...)
		if !ok {
			break
		}
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if len(got) != len(headers) {
		t.Fatalf("replayed %d of %d headers", len(got), len(headers))
	}
	for i := range headers {
		if got[i] != onWire(headers[i]) {
			t.Fatalf("header %d: %+v, want %+v", i, got[i], onWire(headers[i]))
		}
	}
	if src.Records != uint64(len(headers)) || src.DecodeErrors != 0 {
		t.Fatalf("records %d decode errors %d", src.Records, src.DecodeErrors)
	}
}

func TestPcapSourceSkipsUndecodableRecords(t *testing.T) {
	headers := traceHeaders(t, 100)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range headers {
		frame := wire.BuildFrame(h)
		if i%10 == 3 {
			frame[ethHeaderOff()+10] ^= 0xFF // corrupt the IPv4 checksum
		}
		if err := w.WritePacket(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewPcapSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	hs := make([]rules.Header, 64)
	for {
		n, ok := src.Next(hs)
		total += n
		if !ok {
			break
		}
	}
	if src.DecodeErrors != 10 {
		t.Fatalf("decode errors %d, want 10", src.DecodeErrors)
	}
	if total != 90 || src.Records != 100 {
		t.Fatalf("decoded %d of %d records", total, src.Records)
	}
}

// ethHeaderOff keeps the corrupt-byte offset readable: the checksum
// byte sits 10 bytes into the IPv4 header, itself 14 bytes in.
func ethHeaderOff() int { return 14 }

func TestZeroAllocPcapSourceNext(t *testing.T) {
	headers := traceHeaders(t, 20000)
	src, err := NewPcapSource(bytes.NewReader(writeCapture(t, headers)))
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]rules.Header, 64)
	// Warm the segment arena on the first batch.
	if n, ok := src.Next(hs); n != 64 || !ok {
		t.Fatalf("warmup pull: %d, %v", n, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if n, _ := src.Next(hs); n == 0 {
			t.Fatal("capture exhausted during the measurement window")
		}
	}); allocs != 0 {
		t.Fatalf("warmed replay pull allocates %v per batch; the decode path must be 0-alloc", allocs)
	}
}

func TestPcapSourceDrivesEngine(t *testing.T) {
	rs, err := rulegen.Generate(rulegen.Config{Kind: rulegen.CoreRouter, Size: 100, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pktgen.Generate(rs, pktgen.Config{Count: 5000, Seed: 1002, MatchFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := expcuts.New(rs, expcuts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPcapSource(bytes.NewReader(writeCapture(t, tr.Headers)))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	st, err := engine.RunStream(context.Background(), tree, engine.Config{Shards: 4, PreserveOrder: true}, src,
		func(r engine.Result) {
			if r.Seq != next {
				t.Fatalf("out of order: %d after %d", r.Seq, next-1)
			}
			next++
			if r.Header != onWire(tr.Headers[r.Seq]) {
				t.Fatalf("packet %d: header %+v, want %+v", r.Seq, r.Header, tr.Headers[r.Seq])
			}
			if want := rs.Match(r.Header); r.Match != want {
				t.Fatalf("packet %d: match %d, oracle %d", r.Seq, r.Match, want)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != len(tr.Headers) {
		t.Fatalf("classified %d of %d replayed packets", st.Packets, len(tr.Headers))
	}
}
