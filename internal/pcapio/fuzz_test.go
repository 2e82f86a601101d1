package pcapio

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseRequest asserts that request parsing is total — any datagram
// parses to a token and frame or returns an error, never panics — and
// that AppendRequest then ParseRequest round-trips the token and frame.
// data is both the raw datagram and the frame of the round trip.
func FuzzParseRequest(f *testing.F) {
	for _, n := range []int{0, ReqHeaderLen - 1, ReqHeaderLen, MaxRequestLen, MaxRequestLen + 1} {
		f.Add(uint64(n), bytes.Repeat([]byte{0xA5}, n))
	}
	f.Fuzz(func(t *testing.T, token uint64, data []byte) {
		tok, frame, err := ParseRequest(data)
		if wellFormed := len(data) >= ReqHeaderLen && len(data) <= MaxRequestLen; wellFormed != (err == nil) {
			t.Fatalf("%d-byte datagram: err %v", len(data), err)
		}
		if err == nil && (tok != binary.BigEndian.Uint64(data) || !bytes.Equal(frame, data[ReqHeaderLen:])) {
			t.Fatalf("%d-byte datagram parsed to token %#x and a %d-byte frame", len(data), tok, len(frame))
		}

		tok, frame, err = ParseRequest(AppendRequest(nil, token, data))
		if len(data) > MaxFrameLen {
			if err == nil {
				t.Fatalf("a request with a %d-byte frame parsed", len(data))
			}
			return
		}
		if err != nil || tok != token || !bytes.Equal(frame, data) {
			t.Fatalf("round trip of token %#x and a %d-byte frame: token %#x, %d-byte frame, err %v",
				token, len(data), tok, len(frame), err)
		}
	})
}
