package packet

import (
	"encoding/binary"
	"fmt"
)

// Builder constructs valid Ethernet/IPv4/{UDP,TCP} frames. The traffic
// generators use it to synthesize wire-format packets; tests use it to
// produce known-good inputs for the decoder and the BPF machine.
type Builder struct {
	SrcMAC, DstMAC MAC
	TTL            uint8
}

// NewBuilder returns a builder with reasonable defaults (locally
// administered MACs, TTL 64).
func NewBuilder() *Builder {
	return &Builder{
		SrcMAC: MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		DstMAC: MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02},
		TTL:    64,
	}
}

// FrameLenFor returns the on-wire frame length (without FCS) for a packet
// of the given flow with payloadLen transport payload bytes, including
// minimum-frame padding.
func FrameLenFor(proto uint8, payloadLen int) int {
	l4 := UDPHeaderLen
	if proto == ProtoTCP {
		l4 = TCPHeaderLen
	}
	n := EthernetHeaderLen + IPv4HeaderLen + l4 + payloadLen
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// TCP flag bits.
const (
	TCPFin = 0x01
	TCPSyn = 0x02
	TCPRst = 0x04
	TCPPsh = 0x08
	TCPAck = 0x10
)

// Build writes a complete frame for the flow with the given payload into
// buf and returns the frame slice; TCP segments carry PSH|ACK and a zero
// sequence number (use BuildTCPSeg for stateful sessions). buf must have
// capacity for the frame (see FrameLenFor); Build panics otherwise, since
// generators size buffers up front. buf may hold stale bytes: Build zeroes
// the headers and the minimum-frame padding and copies the payload over
// the rest, so a generator can reuse one scratch buffer for every frame
// (payload must not overlap buf). Checksums (IPv4 header, UDP, TCP) are
// filled in correctly.
func (b *Builder) Build(buf []byte, flow FlowKey, payload []byte) []byte {
	return b.build(buf, flow, payload, 0, TCPPsh|TCPAck)
}

// BuildTCPSeg writes a TCP segment with an explicit sequence number and
// flag byte, for generators that model real session life cycles
// (SYN, data, FIN).
func (b *Builder) BuildTCPSeg(buf []byte, flow FlowKey, seq uint32, flags uint8, payload []byte) []byte {
	if flow.Proto != ProtoTCP {
		panic("packet: BuildTCPSeg requires a TCP flow")
	}
	return b.build(buf, flow, payload, seq, flags)
}

func (b *Builder) build(buf []byte, flow FlowKey, payload []byte, seq uint32, tcpFlags uint8) []byte {
	switch flow.Proto {
	case ProtoUDP, ProtoTCP:
	default:
		panic(fmt.Sprintf("packet: Build supports TCP and UDP only, got proto %d", flow.Proto))
	}
	n := FrameLenFor(flow.Proto, len(payload))
	if cap(buf) < n {
		panic(fmt.Sprintf("packet: Build buffer cap %d < frame len %d", cap(buf), n))
	}
	l4len := UDPHeaderLen
	if flow.Proto == ProtoTCP {
		l4len = TCPHeaderLen
	}
	// Zero only what no write below covers: the headers and the
	// minimum-frame padding after the payload. The payload copy fills
	// the bytes in between, so a reused buffer leaks nothing.
	hdr := EthernetHeaderLen + IPv4HeaderLen + l4len
	frame := buf[:n]
	clear(frame[:hdr])
	clear(frame[hdr+len(payload):])

	// Ethernet.
	copy(frame[0:6], b.DstMAC[:])
	copy(frame[6:12], b.SrcMAC[:])
	binary.BigEndian.PutUint16(frame[12:14], EtherTypeIPv4)

	// IPv4.
	ip := frame[EthernetHeaderLen:]
	totalLen := IPv4HeaderLen + l4len + len(payload)
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	ip[8] = b.TTL
	ip[9] = flow.Proto
	copy(ip[12:16], flow.Src[:])
	copy(ip[16:20], flow.Dst[:])
	csum := Checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:12], csum)

	// Transport.
	l4 := ip[IPv4HeaderLen:]
	switch flow.Proto {
	case ProtoUDP:
		binary.BigEndian.PutUint16(l4[0:2], flow.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], flow.DstPort)
		binary.BigEndian.PutUint16(l4[4:6], uint16(UDPHeaderLen+len(payload)))
		copy(l4[UDPHeaderLen:], payload)
		udpCsum := l4Checksum(flow, l4[:UDPHeaderLen+len(payload)])
		if udpCsum == 0 {
			udpCsum = 0xffff // RFC 768: transmitted as all ones
		}
		binary.BigEndian.PutUint16(l4[6:8], udpCsum)
	case ProtoTCP:
		binary.BigEndian.PutUint16(l4[0:2], flow.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], flow.DstPort)
		binary.BigEndian.PutUint32(l4[4:8], seq)
		l4[12] = (TCPHeaderLen / 4) << 4
		l4[13] = tcpFlags
		binary.BigEndian.PutUint16(l4[14:16], 65535)
		copy(l4[TCPHeaderLen:], payload)
		binary.BigEndian.PutUint16(l4[16:18], l4Checksum(flow, l4[:TCPHeaderLen+len(payload)]))
	}
	return frame
}

// l4Checksum computes the TCP/UDP checksum of seg, whose checksum field
// must be zero, including the IPv4 pseudo-header: the two addresses as
// 32-bit words, the protocol and the segment length.
func l4Checksum(flow FlowKey, seg []byte) uint16 {
	pseudo := uint64(flow.Src.Uint32()) + uint64(flow.Dst.Uint32()) +
		uint64(flow.Proto) + uint64(uint16(len(seg)))
	return checksum(pseudo, seg)
}
