package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func testFlow() FlowKey {
	return FlowKey{
		Src:     IPv4{131, 225, 2, 10},
		Dst:     IPv4{192, 168, 1, 20},
		SrcPort: 4321,
		DstPort: 53,
		Proto:   ProtoUDP,
	}
}

func TestBuildDecodeUDPRoundTrip(t *testing.T) {
	b := NewBuilder()
	flow := testFlow()
	payload := []byte("hello wirecap")
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, flow, payload)

	var d Decoded
	if err := Decode(frame, &d); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Flow != flow {
		t.Fatalf("flow = %v, want %v", d.Flow, flow)
	}
	if d.IPVersion != 4 {
		t.Fatalf("version = %d", d.IPVersion)
	}
	if !bytes.Equal(d.Payload()[:len(payload)], payload) {
		t.Fatalf("payload = %q", d.Payload())
	}
	if !verifyIPv4Checksum(&d) {
		t.Fatal("IPv4 checksum invalid")
	}
}

func TestBuildDecodeTCPRoundTrip(t *testing.T) {
	b := NewBuilder()
	flow := testFlow()
	flow.Proto = ProtoTCP
	flow.DstPort = 443
	payload := bytes.Repeat([]byte{0xab}, 100)
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, flow, payload)

	var d Decoded
	if err := Decode(frame, &d); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Flow != flow {
		t.Fatalf("flow = %v, want %v", d.Flow, flow)
	}
	if d.TCPFlags&0x10 == 0 {
		t.Fatal("ACK flag not set on generated TCP segment")
	}
	if !bytes.Equal(d.Payload(), payload) {
		t.Fatal("TCP payload mismatch")
	}
}

func TestBuildMinFramePadding(t *testing.T) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, testFlow(), nil)
	if len(frame) != MinFrameLen {
		t.Fatalf("empty-payload frame len = %d, want %d", len(frame), MinFrameLen)
	}
	// The padding must not confuse the decoder: IP total length governs.
	var d Decoded
	if err := Decode(frame, &d); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.TotalLen != IPv4HeaderLen+UDPHeaderLen {
		t.Fatalf("TotalLen = %d", d.TotalLen)
	}
}

func TestFrameLenFor(t *testing.T) {
	cases := []struct {
		proto   uint8
		payload int
		want    int
	}{
		{ProtoUDP, 0, 60},
		{ProtoUDP, 18, 60},
		{ProtoUDP, 19, 61},
		{ProtoUDP, 1000, 14 + 20 + 8 + 1000},
		{ProtoTCP, 0, 60},
		{ProtoTCP, 7, 61},
	}
	for _, c := range cases {
		if got := FrameLenFor(c.proto, c.payload); got != c.want {
			t.Errorf("FrameLenFor(%d, %d) = %d, want %d", c.proto, c.payload, got, c.want)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, testFlow(), []byte("payload"))
	var d Decoded
	for _, n := range []int{0, 5, 13, 20, 33, 41} {
		if err := Decode(frame[:n], &d); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestDecodeNonIP(t *testing.T) {
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	var d Decoded
	if err := Decode(frame, &d); err != ErrNotIP {
		t.Fatalf("err = %v, want ErrNotIP", err)
	}
	if d.EtherType != EtherTypeARP {
		t.Fatalf("EtherType = %#x", d.EtherType)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, testFlow(), nil)
	frame[EthernetHeaderLen] = 0x65 // version 6 in an IPv4 ethertype frame
	var d Decoded
	if err := Decode(frame, &d); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeBadIHL(t *testing.T) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, testFlow(), nil)
	frame[EthernetHeaderLen] = 0x44 // IHL 4 (16 bytes) is illegal
	var d Decoded
	if err := Decode(frame, &d); err != ErrBadHdrLen {
		t.Fatalf("err = %v, want ErrBadHdrLen", err)
	}
}

func TestCorruptedChecksumDetected(t *testing.T) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	frame := b.Build(buf, testFlow(), nil)
	var d Decoded
	if err := Decode(frame, &d); err != nil {
		t.Fatal(err)
	}
	frame[EthernetHeaderLen+12] ^= 0xff // flip a source-address byte
	if err := Decode(frame, &d); err != nil {
		t.Fatal(err)
	}
	if verifyIPv4Checksum(&d) {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 folds to 0xddf2; the checksum
	// field carries its one's complement, 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd length.
	if got := Checksum([]byte{0xff}); got != 0x00ff {
		t.Fatalf("odd Checksum = %#04x, want 0x00ff", got)
	}
	if got := Checksum(nil); got != 0xffff {
		t.Fatalf("empty Checksum = %#04x, want 0xffff", got)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	f := testFlow()
	r := f.reverse()
	if r.Src != f.Dst || r.Dst != f.Src || r.SrcPort != f.DstPort || r.DstPort != f.SrcPort {
		t.Fatalf("reverse = %v", r)
	}
	if r.reverse() != f {
		t.Fatal("double reverse not identity")
	}
}

func TestFlowKeyString(t *testing.T) {
	f := testFlow()
	want := "udp 131.225.2.10:4321 > 192.168.1.20:53"
	if got := f.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC.String = %q", got)
	}
}

func TestIPv4Uint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return IPv4FromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDecodePropertyRoundTrip(t *testing.T) {
	// Property: for arbitrary flows and payload sizes, Build produces a
	// frame that Decode parses back to the identical flow, with valid
	// checksums.
	b := NewBuilder()
	buf := make([]byte, 4096)
	f := func(srcIP, dstIP uint32, sp, dp uint16, isTCP bool, paylen uint16) bool {
		flow := FlowKey{
			Src:     IPv4FromUint32(srcIP),
			Dst:     IPv4FromUint32(dstIP),
			SrcPort: sp,
			DstPort: dp,
			Proto:   ProtoUDP,
		}
		if isTCP {
			flow.Proto = ProtoTCP
		}
		payload := make([]byte, int(paylen%1400))
		for i := range payload {
			payload[i] = byte(i)
		}
		frame := b.Build(buf, flow, payload)
		var d Decoded
		if err := Decode(frame, &d); err != nil {
			return false
		}
		return d.Flow == flow && verifyIPv4Checksum(&d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeIPv6Minimal(t *testing.T) {
	// Hand-build a minimal IPv6+UDP frame.
	frame := make([]byte, EthernetHeaderLen+IPv6HeaderLen+UDPHeaderLen)
	frame[12], frame[13] = 0x86, 0xDD
	ip := frame[EthernetHeaderLen:]
	ip[0] = 0x60
	ip[4], ip[5] = 0, UDPHeaderLen
	ip[6] = ProtoUDP
	ip[7] = 64
	l4 := ip[IPv6HeaderLen:]
	l4[0], l4[1] = 0x12, 0x34
	l4[2], l4[3] = 0x00, 0x35
	var d Decoded
	if err := Decode(frame, &d); err != nil {
		t.Fatalf("Decode IPv6: %v", err)
	}
	if d.IPVersion != 6 || d.Flow.Proto != ProtoUDP || d.Flow.SrcPort != 0x1234 || d.Flow.DstPort != 53 {
		t.Fatalf("decoded = %+v", d)
	}
}

func BenchmarkDecode64B(b *testing.B) {
	bd := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	frame := bd.Build(buf, testFlow(), nil)
	var d Decoded
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Decode(frame, &d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild64B(b *testing.B) {
	bd := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	flow := testFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd.Build(buf, flow, nil)
	}
}

func TestBuildTCPSeg(t *testing.T) {
	b := NewBuilder()
	buf := make([]byte, MaxFrameLen)
	flow := testFlow()
	flow.Proto = ProtoTCP
	frame := b.BuildTCPSeg(buf, flow, 0xdeadbeef, TCPSyn, nil)
	var d Decoded
	if err := Decode(frame, &d); err != nil {
		t.Fatal(err)
	}
	if d.TCPFlags != TCPSyn {
		t.Fatalf("flags = %#x", d.TCPFlags)
	}
	if got := binary.BigEndian.Uint32(frame[d.L4Offset+4 : d.L4Offset+8]); got != 0xdeadbeef {
		t.Fatalf("seq = %#x", got)
	}
	if !verifyIPv4Checksum(&d) {
		t.Fatal("bad checksum")
	}
}

func TestBuildTCPSegRejectsUDP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BuildTCPSeg accepted a UDP flow")
		}
	}()
	b := NewBuilder()
	b.BuildTCPSeg(make([]byte, MaxFrameLen), testFlow(), 0, TCPSyn, nil)
}

// verifyIPv4Checksum reports whether the IPv4 header checksum of a decoded
// frame is valid.
func verifyIPv4Checksum(d *Decoded) bool {
	if d.IPVersion != 4 {
		return false
	}
	hdr := d.Frame[EthernetHeaderLen : EthernetHeaderLen+d.IPHeaderLen]
	return Checksum(hdr) == 0
}
