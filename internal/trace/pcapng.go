package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/vtime"
)

// pcapng (the pcap-NG capture file format, as written by modern
// tcpdump/wireshark): enough of the block structure to read packet data
// — Section Header Block, Interface Description Block, Enhanced Packet
// Block, and tolerant skipping of everything else. The tests write their
// input with NgWriter (ngwriter_test.go).

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A // section header
	blockIDB = 0x00000001 // interface description
	blockEPB = 0x00000006 // enhanced packet
)

const ngByteOrderMagic = 0x1A2B3C4D

// Errors returned by the pcapng reader.
var (
	ErrNotPcapng     = errors.New("trace: not a pcapng file")
	ErrBadBlock      = errors.New("trace: malformed pcapng block")
	ErrNoInterface   = errors.New("trace: pcapng packet references unknown interface")
	ErrBadResolution = errors.New("trace: unsupported pcapng timestamp resolution")
)

// ngInterface describes one capture interface of a section.
type ngInterface struct {
	linkType uint16
	// tsDiv converts raw timestamps to nanoseconds: ns = raw * tsMul.
	tsMul vtime.Time
}

// NgReader reads pcapng files (little- or big-endian sections).
type NgReader struct {
	r      *bufio.Reader
	order  binary.ByteOrder
	ifaces []ngInterface
	buf    []byte
}

// NewNgReader checks the section header and returns a reader.
func NewNgReader(r io.Reader) (*NgReader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(12)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotPcapng, err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != blockSHB {
		return nil, ErrNotPcapng
	}
	rd := &NgReader{r: br}
	switch {
	case binary.LittleEndian.Uint32(head[8:12]) == ngByteOrderMagic:
		rd.order = binary.LittleEndian
	case binary.BigEndian.Uint32(head[8:12]) == ngByteOrderMagic:
		rd.order = binary.BigEndian
	default:
		return nil, ErrNotPcapng
	}
	// Consume the SHB.
	if _, _, err := rd.readBlock(); err != nil {
		return nil, err
	}
	return rd, nil
}

// readBlock returns the next block's type and body (without the
// type/length framing).
func (r *NgReader) readBlock() (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	typ := r.order.Uint32(hdr[0:4])
	total := r.order.Uint32(hdr[4:8])
	if total < 12 || total%4 != 0 || total > 1<<20 {
		return 0, nil, fmt.Errorf("%w: block length %d", ErrBadBlock, total)
	}
	body := int(total) - 12
	if cap(r.buf) < body {
		r.buf = make([]byte, body)
	}
	r.buf = r.buf[:body]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r.r, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	if r.order.Uint32(tail[:]) != total {
		return 0, nil, fmt.Errorf("%w: trailing length mismatch", ErrBadBlock)
	}
	return typ, r.buf, nil
}

// addInterface parses an IDB body.
func (r *NgReader) addInterface(body []byte) error {
	if len(body) < 8 {
		return ErrBadBlock
	}
	iface := ngInterface{
		linkType: r.order.Uint16(body[0:2]),
		tsMul:    vtime.Microsecond, // pcapng default resolution is 10^-6
	}
	// Walk options for if_tsresol (code 9).
	opts := body[8:]
	for len(opts) >= 4 {
		code := r.order.Uint16(opts[0:2])
		olen := int(r.order.Uint16(opts[2:4]))
		if code == 0 {
			break
		}
		if 4+olen > len(opts) {
			return ErrBadBlock
		}
		if code == 9 && olen >= 1 {
			v := opts[4]
			if v&0x80 != 0 {
				return fmt.Errorf("%w: base-2 resolution", ErrBadResolution)
			}
			mul := vtime.Time(1)
			for i := v; i < 9; i++ {
				mul *= 10
			}
			if v > 9 {
				return fmt.Errorf("%w: finer than nanoseconds", ErrBadResolution)
			}
			iface.tsMul = mul
		}
		opts = opts[4+(olen+3)/4*4:]
	}
	r.ifaces = append(r.ifaces, iface)
	return nil
}

// ReadPacket returns the next Ethernet frame and its timestamp, skipping
// non-packet blocks and non-Ethernet interfaces. The frame buffer is
// valid until the next call. io.EOF signals a clean end.
func (r *NgReader) ReadPacket() ([]byte, vtime.Time, error) {
	for {
		typ, body, err := r.readBlock()
		if err != nil {
			return nil, 0, err
		}
		switch typ {
		case blockIDB:
			if err := r.addInterface(body); err != nil {
				return nil, 0, err
			}
		case blockEPB:
			if len(body) < 20 {
				return nil, 0, ErrBadBlock
			}
			ifID := int(r.order.Uint32(body[0:4]))
			if ifID >= len(r.ifaces) {
				return nil, 0, ErrNoInterface
			}
			iface := r.ifaces[ifID]
			if iface.linkType != LinkTypeEthernet {
				continue // skip packets from non-Ethernet interfaces
			}
			raw := uint64(r.order.Uint32(body[4:8]))<<32 | uint64(r.order.Uint32(body[8:12]))
			capLen := int(r.order.Uint32(body[12:16]))
			if 20+capLen > len(body) {
				return nil, 0, ErrBadBlock
			}
			return body[20 : 20+capLen], vtime.Time(raw) * iface.tsMul, nil
		case blockSHB:
			// A new section resets the interface list.
			r.ifaces = r.ifaces[:0]
		default:
			// Skip unknown and statistics blocks.
		}
	}
}

// NgSource adapts an NgReader into a Source.
type NgSource struct {
	r   *NgReader
	err error
}

// NewNgSource wraps a pcapng reader.
func NewNgSource(r *NgReader) *NgSource { return &NgSource{r: r} }

// Next implements Source.
func (s *NgSource) Next() ([]byte, vtime.Time, bool) {
	frame, ts, err := s.r.ReadPacket()
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return nil, 0, false
	}
	return frame, ts, true
}

// Err returns the error that ended the stream, if any.
func (s *NgSource) Err() error { return s.err }
