//go:build !linux

package iofront

import "net/netip"

// The portable twin of sock_linux.go: one datagram per reply.

// writeRun writes a run of replies to one destination, one datagram each.
func (w *replyWriter) writeRun(b []byte, addr netip.AddrPort) int {
	return w.writeEach(b, addr)
}
