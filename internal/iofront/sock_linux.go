package iofront

import (
	"errors"
	"net/netip"
	"syscall"
	"unsafe"

	"repro/internal/pcapio"
)

// The linux half of the reply path: one sendmsg carrying a UDP_SEGMENT
// control message writes a whole run of replies to one destination, and
// the kernel splits it into ReplyLen-byte datagrams on delivery. Every
// other GOOS builds sock_other.go, which writes one datagram per reply.

const (
	solUDP     = 17  // SOL_UDP, the IPPROTO_UDP socket level
	udpSegment = 103 // UDP_SEGMENT: gso_size of a UDP GSO send
)

// gsoCmsg is the control message of every batched reply send: segments of
// exactly ReplyLen bytes. It is built once and only ever read.
var gsoCmsg = func() []byte {
	b := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = solUDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&b[syscall.CmsgLen(0)])) = pcapio.ReplyLen
	return b
}()

// writeRun writes a run of replies to one destination: one GSO send when
// the run has two or more and GSO is on, else one datagram each. A run
// whose GSO send fails is retried one datagram each. GSO then goes off
// for the conn's writer only if the kernel lacks UDP_SEGMENT
// (ENOPROTOOPT), or refused the send with EIO or EINVAL and the retry
// delivered the whole run: those two errors also come from a destination
// (port 0, an xfrm route), which fails the retry too.
func (w *replyWriter) writeRun(b []byte, addr netip.AddrPort) int {
	n := len(b) / pcapio.ReplyLen
	if n < 2 || w.noGSO.Load() {
		return w.writeEach(b, addr)
	}
	_, _, err := w.conn.WriteMsgUDPAddrPort(b, gsoCmsg, addr)
	if err == nil {
		w.gsoReplies.Add(int64(n))
		return n
	}
	sent := w.writeEach(b, addr)
	if errors.Is(err, syscall.ENOPROTOOPT) || (sent == n && (errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL))) {
		w.noGSO.Store(true)
	}
	return sent
}
