package nic

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/vtime"
)

// TestToeplitzTableMatchesReference verifies the per-byte table produces
// bit-identical hashes to the bit-serial Toeplitz reference, for TCP/UDP
// (12-byte input) and other protocols (8-byte input), across keys.
func TestToeplitzTableMatchesReference(t *testing.T) {
	keys := [][40]byte{DefaultRSSKey}
	var alt [40]byte
	r := vtime.NewRand(99)
	for i := range alt {
		alt[i] = byte(r.Intn(256))
	}
	keys = append(keys, alt)
	for _, key := range keys {
		tt := newToeplitzTable(key[:])
		// Every entry: input byte i set to v, every other byte zero.
		for i := range tt {
			for v := range tt[i] {
				var in [12]byte
				in[i] = byte(v)
				if got, want := tt[i][v], Toeplitz(key[:], in[:]); got != want {
					t.Fatalf("table[%d][%#x] = %#x, reference %#x", i, v, got, want)
				}
			}
		}
		for i := 0; i < 5000; i++ {
			proto := packet.ProtoUDP
			switch i % 3 {
			case 1:
				proto = packet.ProtoTCP
			case 2:
				proto = 47 // GRE: hashes addresses only
			}
			f := packet.FlowKey{
				Src:     packet.IPv4FromUint32(uint32(r.Uint32())),
				Dst:     packet.IPv4FromUint32(uint32(r.Uint32())),
				SrcPort: uint16(r.Intn(1 << 16)),
				DstPort: uint16(r.Intn(1 << 16)),
				Proto:   proto,
			}
			if got, want := tt.hashFlow(f), RSSHash(key[:], f); got != want {
				t.Fatalf("hashFlow(%+v) = %#x, reference %#x", f, got, want)
			}
		}
	}
}
