// Package packet implements the wire formats the capture path sees:
// Ethernet II framing, IPv4/IPv6, UDP and TCP headers, Internet checksums,
// and 5-tuple flow keys. Encoding and decoding are allocation-conscious:
// decode parses in place over the frame bytes, and encode writes into a
// caller-provided buffer.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// EtherType values used by the simulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeIPv6 uint16 = 0x86DD
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// Frame geometry constants.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20 // without options
	IPv6HeaderLen     = 40
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20 // without options
	MinFrameLen       = 60 // minimum Ethernet payload-padded frame (without FCS)
	MaxFrameLen       = 1514
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in canonical colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is a 32-bit address in network byte order.
type IPv4 [4]byte

// String formats the address in dotted-quad form.
func (a IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer.
func (a IPv4) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// IPv4FromUint32 builds an address from a big-endian integer.
func IPv4FromUint32(v uint32) IPv4 {
	var a IPv4
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// FlowKey identifies an IP 5-tuple. It is comparable and therefore usable
// as a map key; it is also what RSS hashes to steer packets.
type FlowKey struct {
	Src, Dst         IPv4
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the flow as "proto src:sport > dst:dport".
func (f FlowKey) String() string {
	var proto string
	switch f.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	case ProtoICMP:
		proto = "icmp"
	default:
		proto = fmt.Sprintf("proto-%d", f.Proto)
	}
	return fmt.Sprintf("%s %s:%d > %s:%d", proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// reverse returns the flow in the opposite direction.
func (f FlowKey) reverse() FlowKey {
	return FlowKey{Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort, Proto: f.Proto}
}

// Decoding errors.
var (
	ErrTruncated  = errors.New("packet: truncated frame")
	ErrNotIP      = errors.New("packet: not an IPv4/IPv6 frame")
	ErrBadVersion = errors.New("packet: bad IP version")
	ErrBadHdrLen  = errors.New("packet: bad IP header length")
)

// Decoded is the parsed view of a frame. Slices alias the original frame
// buffer; Decoded is only valid while that buffer is.
type Decoded struct {
	SrcMAC, DstMAC MAC
	EtherType      uint16
	Flow           FlowKey
	IPVersion      uint8
	TTL            uint8
	IPHeaderLen    int
	TotalLen       int // IP total length field
	L4Offset       int // offset of the transport header within the frame
	PayloadOffset  int // offset of the transport payload within the frame
	TCPFlags       uint8
	Frame          []byte // the whole frame
}

// Payload returns the transport-layer payload bytes, excluding any
// minimum-frame padding beyond the IP total length.
func (d *Decoded) Payload() []byte {
	end := len(d.Frame)
	if d.IPVersion == 4 || d.IPVersion == 6 {
		if ipEnd := EthernetHeaderLen + d.TotalLen; ipEnd < end {
			end = ipEnd
		}
	}
	if d.PayloadOffset >= end {
		return nil
	}
	return d.Frame[d.PayloadOffset:end]
}

// Decode parses an Ethernet frame through the transport header. It does
// not verify the IPv4 checksum: real NICs check it in hardware and
// capture engines never recompute it per packet.
func Decode(frame []byte, out *Decoded) error {
	if len(frame) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(out.DstMAC[:], frame[0:6])
	copy(out.SrcMAC[:], frame[6:12])
	out.EtherType = binary.BigEndian.Uint16(frame[12:14])
	out.Frame = frame
	out.Flow = FlowKey{}
	out.TCPFlags = 0
	switch out.EtherType {
	case EtherTypeIPv4:
		return decodeIPv4(frame, out)
	case EtherTypeIPv6:
		return decodeIPv6(frame, out)
	default:
		out.IPVersion = 0
		out.L4Offset = EthernetHeaderLen
		out.PayloadOffset = EthernetHeaderLen
		return ErrNotIP
	}
}

func decodeIPv4(frame []byte, out *Decoded) error {
	ip := frame[EthernetHeaderLen:]
	if len(ip) < IPv4HeaderLen {
		return ErrTruncated
	}
	if v := ip[0] >> 4; v != 4 {
		return ErrBadVersion
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || ihl > len(ip) {
		return ErrBadHdrLen
	}
	out.IPVersion = 4
	out.IPHeaderLen = ihl
	out.TotalLen = int(binary.BigEndian.Uint16(ip[2:4]))
	out.TTL = ip[8]
	out.Flow.Proto = ip[9]
	copy(out.Flow.Src[:], ip[12:16])
	copy(out.Flow.Dst[:], ip[16:20])
	out.L4Offset = EthernetHeaderLen + ihl
	return decodeL4(frame, out)
}

func decodeIPv6(frame []byte, out *Decoded) error {
	ip := frame[EthernetHeaderLen:]
	if len(ip) < IPv6HeaderLen {
		return ErrTruncated
	}
	if v := ip[0] >> 4; v != 6 {
		return ErrBadVersion
	}
	out.IPVersion = 6
	out.IPHeaderLen = IPv6HeaderLen
	out.TotalLen = IPv6HeaderLen + int(binary.BigEndian.Uint16(ip[4:6]))
	out.TTL = ip[7]
	out.Flow.Proto = ip[6] // next header; extension headers are not chased
	// For flow-keying purposes fold the 128-bit addresses into the 32-bit
	// key space; the simulator generates IPv4 traffic, and RSS over IPv6
	// uses its own full-width path in internal/nic.
	copy(out.Flow.Src[:], ip[20:24])
	copy(out.Flow.Dst[:], ip[36:40])
	out.L4Offset = EthernetHeaderLen + IPv6HeaderLen
	return decodeL4(frame, out)
}

func decodeL4(frame []byte, out *Decoded) error {
	l4 := frame[out.L4Offset:]
	switch out.Flow.Proto {
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return ErrTruncated
		}
		out.Flow.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		out.Flow.DstPort = binary.BigEndian.Uint16(l4[2:4])
		out.PayloadOffset = out.L4Offset + UDPHeaderLen
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return ErrTruncated
		}
		out.Flow.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		out.Flow.DstPort = binary.BigEndian.Uint16(l4[2:4])
		dataOff := int(l4[12]>>4) * 4
		if dataOff < TCPHeaderLen || dataOff > len(l4) {
			return ErrBadHdrLen
		}
		out.TCPFlags = l4[13]
		out.PayloadOffset = out.L4Offset + dataOff
	default:
		out.PayloadOffset = out.L4Offset
	}
	return nil
}

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 { return checksum(0, b) }

// checksum returns the Internet checksum of b with sum (the caller's
// pre-added words, such as a pseudo-header) folded in. It adds b as
// big-endian 64-bit words with end-around carry, four per iteration.
// Since 2^16 ≡ 1 mod 2^16-1, that sum folds to the same 16 bits as the
// RFC 1071 loop over 16-bit words, and it is zero only when every added
// word is, so a nonzero sum never folds to the negative zero 0x0000
// before the final complement. An odd final byte is the high half of a
// zero-padded word.
func checksum(sum uint64, b []byte) uint16 {
	var c uint64
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	for len(b) >= 2 {
		sum, c = bits.Add64(sum, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		sum, c = bits.Add64(sum, uint64(b[0])<<8, c)
	}
	// Fold the pending carry (2^64 ≡ 1) and the two 32-bit halves
	// (2^32 ≡ 1); the result fits in 33 bits.
	sum = sum>>32 + sum&0xffffffff + c
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
