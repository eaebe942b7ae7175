package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// FuzzDecode guards the wire-format decoder against panics on arbitrary
// frames. Every accepted frame must expose internally consistent offsets.
func FuzzDecode(f *testing.F) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	f.Add(append([]byte(nil), b.Build(buf, FlowKey{
		Src: IPv4{131, 225, 2, 1}, Dst: IPv4{10, 0, 0, 1},
		SrcPort: 1, DstPort: 2, Proto: ProtoUDP,
	}, []byte("x"))...))
	f.Add([]byte{})
	f.Add(make([]byte, 14))
	f.Fuzz(func(t *testing.T, frame []byte) {
		var d Decoded
		if err := Decode(frame, &d); err != nil {
			return
		}
		if d.L4Offset < EthernetHeaderLen || d.L4Offset > len(frame) {
			t.Fatalf("L4Offset %d out of range for %d-byte frame", d.L4Offset, len(frame))
		}
		if d.PayloadOffset < d.L4Offset {
			t.Fatalf("PayloadOffset %d before L4Offset %d", d.PayloadOffset, d.L4Offset)
		}
		_ = d.Payload() // must not panic
	})
}

// FuzzBuildDecode round-trips arbitrary flows and payloads. Each frame is
// built twice, into a zeroed buffer and into one full of stale 0xA5
// bytes, and both builds must be identical, decode to the same flow and
// payload, pass the IPv4 header checksum, and sum to 0xffff over the
// pseudo-header plus TCP/UDP segment (RFC 1071, via refChecksum). The
// seeds give both protocols random payloads at every length class:
// empty, padded to the minimum frame, odd, and full size.
func FuzzBuildDecode(f *testing.F) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, isTCP := range []bool{false, true} {
		maxPay := MaxFrameLen - EthernetHeaderLen - IPv4HeaderLen - UDPHeaderLen
		if isTCP {
			maxPay = MaxFrameLen - EthernetHeaderLen - IPv4HeaderLen - TCPHeaderLen
		}
		for _, n := range []int{0, 1, 5, 6, 17, 18, 19, 63, 64, 555, maxPay - 1, maxPay} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(r.Uint32())
			}
			f.Add(r.Uint32(), r.Uint32(), uint16(r.Uint32()), uint16(r.Uint32()), isTCP, payload)
		}
	}
	f.Add(uint32(0xffffffff), uint32(0xffffffff), uint16(0xffff), uint16(0xffff), false, bytes.Repeat([]byte{0xff}, 1472))
	// A 2-byte payload equal to the checksum of the same datagram with a
	// zero payload makes the UDP sum 0xffff, whose complement, 0, RFC 768
	// transmits as 0xffff.
	zero := NewBuilder().Build(make([]byte, MaxFrameLen), FlowKey{
		Src: IPv4{10, 0, 0, 1}, Dst: IPv4{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: ProtoUDP,
	}, make([]byte, 2))
	f.Add(uint32(0x0a000001), uint32(0x0a000002), uint16(1), uint16(2), false, zero[40:42])
	f.Fuzz(func(t *testing.T, src, dst uint32, sp, dp uint16, isTCP bool, payload []byte) {
		flow := FlowKey{
			Src: IPv4FromUint32(src), Dst: IPv4FromUint32(dst),
			SrcPort: sp, DstPort: dp, Proto: ProtoUDP,
		}
		if isTCP {
			flow.Proto = ProtoTCP
		}
		if FrameLenFor(flow.Proto, len(payload)) > MaxFrameLen {
			return
		}
		b := NewBuilder()
		clean := b.Build(make([]byte, MaxFrameLen), flow, payload)
		frame := b.Build(bytes.Repeat([]byte{0xA5}, MaxFrameLen), flow, payload)
		if !bytes.Equal(clean, frame) {
			t.Fatalf("%v, %d-byte payload: frame built over stale bytes differs from a zeroed build", flow, len(payload))
		}
		var d Decoded
		if err := Decode(frame, &d); err != nil {
			t.Fatalf("Decode of built frame: %v", err)
		}
		if d.Flow != flow {
			t.Fatalf("flow %v != %v", d.Flow, flow)
		}
		if !verifyIPv4Checksum(&d) {
			t.Fatal("built frame has bad IPv4 checksum")
		}
		if !bytes.Equal(d.Payload(), payload) {
			t.Fatalf("payload round trip: got %d bytes, want %d", len(d.Payload()), len(payload))
		}
		if flow.Proto == ProtoUDP && binary.BigEndian.Uint16(frame[d.L4Offset+6:]) == 0 {
			t.Fatalf("%v: UDP checksum sent as 0, which means none", flow)
		}
		seg := frame[d.L4Offset : EthernetHeaderLen+d.TotalLen]
		if sum := ^refChecksum(refPseudo(flow, len(seg)), seg); sum != 0xffff {
			t.Fatalf("%v, %d-byte payload: pseudo-header + segment sums to %#04x, want 0xffff", flow, len(payload), sum)
		}
	})
}

// FuzzChecksumMatchesReference holds the wide one's-complement sum behind
// Checksum and l4Checksum to the 16-bit-word loop of RFC 1071, kept below
// as refChecksum, on every input: odd lengths, carry-heavy runs of 0xff,
// and full-size segments.
func FuzzChecksumMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), ProtoUDP)
	f.Add([]byte{0xff}, uint32(0x83E1020A), uint32(0xC0A80101), ProtoTCP)
	f.Add([]byte{0x01, 0x02, 0x03}, uint32(1), uint32(2), ProtoUDP)
	f.Add(bytes.Repeat([]byte{0xff}, 33), uint32(0xffffffff), uint32(0xffffffff), ProtoUDP)
	f.Add(bytes.Repeat([]byte{0xff}, 1480), uint32(0xffffffff), uint32(0xfffffffe), ProtoTCP)
	f.Add(make([]byte, 1480), uint32(0), uint32(0), ProtoTCP)
	seg := make([]byte, 1480)
	for i := range seg {
		seg[i] = byte(i*131 + i>>8)
	}
	f.Add(seg, uint32(0x83E10200), uint32(0x0A000001), ProtoUDP)
	f.Add(seg[:1479], uint32(0x83E10200), uint32(0x0A000001), ProtoTCP)
	f.Fuzz(func(t *testing.T, b []byte, src, dst uint32, proto uint8) {
		if got, want := Checksum(b), refChecksum(0, b); got != want {
			t.Fatalf("Checksum(%d bytes) = %#04x, reference %#04x", len(b), got, want)
		}
		flow := FlowKey{Src: IPv4FromUint32(src), Dst: IPv4FromUint32(dst), Proto: proto}
		if got, want := l4Checksum(flow, b), refChecksum(refPseudo(flow, len(b)), b); got != want {
			t.Fatalf("l4Checksum(%d bytes) = %#04x, reference %#04x", len(b), got, want)
		}
	})
}

// refChecksum is the RFC 1071 checksum computed one 16-bit word per
// step, on top of the pre-added 16-bit words in sum.
func refChecksum(sum uint64, b []byte) uint16 {
	for len(b) >= 2 {
		sum += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// refPseudo sums the IPv4 pseudo-header as 16-bit words.
func refPseudo(flow FlowKey, segLen int) uint64 {
	return uint64(binary.BigEndian.Uint16(flow.Src[0:2])) +
		uint64(binary.BigEndian.Uint16(flow.Src[2:4])) +
		uint64(binary.BigEndian.Uint16(flow.Dst[0:2])) +
		uint64(binary.BigEndian.Uint16(flow.Dst[2:4])) +
		uint64(flow.Proto) + uint64(uint16(segLen))
}
