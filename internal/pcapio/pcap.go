package pcapio

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Classic libpcap capture format, implemented natively: a 24-byte global
// header then a stream of 16-byte-headed records. Both byte orders and
// both timestamp magics are read; writing emits the little-endian
// microsecond flavor every tool accepts. No cgo, no libpcap — the
// format is four integers and discipline.
const (
	magicUsec = 0xa1b2c3d4 // host-order magic, microsecond timestamps
	magicNsec = 0xa1b23c4d // host-order magic, nanosecond timestamps

	pcapFileHeaderLen   = 24
	pcapRecordHeaderLen = 16

	// LinkTypeEthernet is the only link type the decode path understands.
	LinkTypeEthernet = 1

	// MaxSnapLen bounds per-record capture lengths; a record claiming
	// more is a corrupt or hostile file, not a jumbo frame.
	MaxSnapLen = 256 * 1024
)

// Reader streams records out of a classic pcap file.
type Reader struct {
	r     io.Reader
	order binary.ByteOrder
	nanos bool

	linkType uint32
	snapLen  uint32
	hdr      [pcapRecordHeaderLen]byte
	nrec     int
}

// NewReader parses the global header and positions the reader at the
// first record. Only LinkTypeEthernet files are accepted — the decode
// path reads Ethernet II framing, and silently misparsing a raw-IP or
// Linux-SLL capture would be worse than refusing it.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [pcapFileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading pcap file header: %w", err)
	}
	pr := &Reader{r: r}
	switch magic := binary.LittleEndian.Uint32(hdr[0:4]); magic {
	case magicUsec:
		pr.order = binary.LittleEndian
	case magicNsec:
		pr.order, pr.nanos = binary.LittleEndian, true
	default:
		switch magic := binary.BigEndian.Uint32(hdr[0:4]); magic {
		case magicUsec:
			pr.order = binary.BigEndian
		case magicNsec:
			pr.order, pr.nanos = binary.BigEndian, true
		default:
			return nil, fmt.Errorf("pcapio: %#08x is not a pcap magic", magic)
		}
	}
	pr.snapLen = pr.order.Uint32(hdr[16:20])
	pr.linkType = pr.order.Uint32(hdr[20:24])
	if pr.linkType != LinkTypeEthernet {
		return nil, fmt.Errorf("pcapio: link type %d unsupported (want %d, Ethernet)", pr.linkType, LinkTypeEthernet)
	}
	return pr, nil
}

// LinkType returns the capture's link type (always LinkTypeEthernet for
// a successfully opened reader).
func (r *Reader) LinkType() uint32 { return r.linkType }

// Next reads one record's captured bytes into seg (one Grow/Commit
// packet) and returns its timestamp in nanoseconds. io.EOF signals a
// clean end of file; a file ending inside a record is reported as
// io.ErrUnexpectedEOF.
func (r *Reader) Next(seg *Segment) (tsNanos uint64, err error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("pcapio: record %d header: %w", r.nrec, io.ErrUnexpectedEOF)
	}
	sec := uint64(r.order.Uint32(r.hdr[0:4]))
	frac := uint64(r.order.Uint32(r.hdr[4:8]))
	if r.nanos {
		tsNanos = sec*1e9 + frac
	} else {
		tsNanos = sec*1e9 + frac*1e3
	}
	capLen := r.order.Uint32(r.hdr[8:12])
	if capLen > MaxSnapLen {
		return 0, fmt.Errorf("pcapio: record %d capture length %d exceeds %d", r.nrec, capLen, MaxSnapLen)
	}
	buf := seg.Grow(int(capLen))
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return 0, fmt.Errorf("pcapio: record %d body: %w", r.nrec, io.ErrUnexpectedEOF)
	}
	seg.Commit(int(capLen))
	r.nrec++
	return tsNanos, nil
}

// Writer emits a classic little-endian microsecond pcap file.
type Writer struct {
	w   io.Writer
	hdr [pcapRecordHeaderLen]byte
}

// NewWriter writes the global header (Ethernet link type, 64KiB
// snaplen) and returns a record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [pcapFileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicUsec)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: writing pcap file header: %w", err)
	}
	return &Writer{w: w}, nil
}

// WritePacket appends one fully captured frame stamped tsNanos
// nanoseconds since the epoch.
func (w *Writer) WritePacket(tsNanos uint64, frame []byte) error {
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(tsNanos/1e9))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(tsNanos%1e9/1e3))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(len(frame)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("pcapio: writing record body: %w", err)
	}
	return nil
}
