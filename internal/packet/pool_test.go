package packet

import "testing"

func TestFrameBufPoolRoundTrip(t *testing.T) {
	b := GetFrameBuf()
	if len(*b) != MaxFrameLen {
		t.Fatalf("len = %d, want %d", len(*b), MaxFrameLen)
	}
	(*b)[0] = 0xAB
	PutFrameBuf(b)
	// Undersized replacements are dropped, not pooled.
	small := make([]byte, 16)
	PutFrameBuf(&small)
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		b := GetFrameBuf()
		(*b)[0] = 1
		PutFrameBuf(b)
	}); n > 0 {
		t.Errorf("pool round trip allocates %.1f/op, want 0", n)
	}
}
