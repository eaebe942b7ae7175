package mem

import (
	"errors"
	"testing"

	"repro/internal/vtime"
)

func newMappedPool(t *testing.T, m, r int) *Pool {
	t.Helper()
	p := NewPool(0, 0, m, r)
	if err := p.Map(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolGeometry(t *testing.T) {
	p := NewPool(1, 2, 256, 100)
	if p.m != 256 || p.R() != 100 {
		t.Fatalf("geometry %d/%d", p.m, p.R())
	}
	if p.MemoryBytes() != 256*100*CellSize {
		t.Fatalf("memory %d", p.MemoryBytes())
	}
	if p.FreeCount() != 100 {
		t.Fatalf("free %d", p.FreeCount())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkLifeCycle(t *testing.T) {
	p := newMappedPool(t, 4, 2)
	c, err := p.AllocFree()
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateAttached {
		t.Fatalf("state = %v", c.State())
	}
	// Fill all four cells through DMA writes.
	for i := 0; i < 4; i++ {
		copy(c.Cell(i), []byte{byte(i)})
		c.SetPacket(i, 1, vtime.Time(i*10))
	}
	if !c.Full() {
		t.Fatal("chunk not full after filling all cells")
	}
	meta, err := p.Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	if meta.PktCount != 4 || meta.ID != c.ID() {
		t.Fatalf("meta = %+v", meta)
	}
	data, ts := c.Packet(2)
	if len(data) != 1 || data[0] != 2 || ts != 20 {
		t.Fatalf("packet 2 = %v @ %v", data, ts)
	}
	if err := p.Recycle(meta); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateFree || c.Count() != 0 {
		t.Fatalf("after recycle: %v count %d", c.State(), c.Count())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := newMappedPool(t, 2, 3)
	for i := 0; i < 3; i++ {
		if _, err := p.AllocFree(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AllocFree(); !errors.Is(err, ErrNoFreeChunk) {
		t.Fatalf("err = %v", err)
	}
	st := p.Stats()
	if st.Allocated != 3 || st.AllocFailures != 1 || st.LowWatermarkFree != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCaptureRequiresMapping(t *testing.T) {
	p := NewPool(0, 0, 2, 2)
	c, _ := p.AllocFree()
	if _, err := p.Capture(c); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("err = %v", err)
	}
}

func TestCaptureWrongState(t *testing.T) {
	p := newMappedPool(t, 2, 2)
	c, _ := p.AllocFree()
	if _, err := p.Capture(c); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Capture(c); err == nil {
		t.Fatal("double capture succeeded")
	}
}

func TestRecycleValidation(t *testing.T) {
	p := newMappedPool(t, 2, 2)
	c, _ := p.AllocFree()
	copy(c.Cell(0), []byte{1})
	c.SetPacket(0, 1, 0)
	meta, err := p.Capture(c)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		meta Meta
		want error
	}{
		{"wrong-nic", Meta{ID: ChunkID{NIC: 9}, ProcAddr: meta.ProcAddr, PktCount: meta.PktCount}, ErrUnknownChunk},
		{"bad-index", Meta{ID: ChunkID{Chunk: 99}, ProcAddr: meta.ProcAddr, PktCount: meta.PktCount}, ErrUnknownChunk},
		{"negative-index", Meta{ID: ChunkID{Chunk: -1}}, ErrUnknownChunk},
		{"forged-addr", Meta{ID: meta.ID, ProcAddr: meta.ProcAddr + 1, PktCount: meta.PktCount}, ErrBadProcAddr},
		{"wrong-count", Meta{ID: meta.ID, ProcAddr: meta.ProcAddr, PktCount: 2}, ErrBadPktCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := p.Recycle(tc.meta); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	if got := p.Stats().RecycleRejected; got != uint64(len(cases)) {
		t.Fatalf("RecycleRejected = %d, want %d", got, len(cases))
	}
	// The genuine metadata still works after all the forgeries.
	if err := p.Recycle(meta); err != nil {
		t.Fatal(err)
	}
	// And recycling twice fails: the chunk is now free.
	if err := p.Recycle(meta); !errors.Is(err, ErrNotCaptured) {
		t.Fatalf("double recycle err = %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetPacketOutOfOrderPanics(t *testing.T) {
	p := NewPool(0, 0, 4, 1)
	c, _ := p.AllocFree()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order SetPacket did not panic")
		}
	}()
	c.SetPacket(2, 1, 0)
}

// TestProcAddrsIndependentOfOtherPools checks that a pool's process
// addresses follow from its own geometry: building other pools first
// moves none of them, cells are CellSize apart, and chunks do not
// overlap.
func TestProcAddrsIndependentOfOtherPools(t *testing.T) {
	addrs := func(p *Pool) []Addr {
		var out []Addr
		for _, c := range p.chunks {
			for i := 0; i < c.Cells(); i++ {
				out = append(out, c.ProcAddr(i))
			}
		}
		return out
	}
	first := addrs(NewPool(0, 1, 4, 3))
	for i := 0; i < 5; i++ {
		NewPool(i, 0, 8, 4)
	}
	again := addrs(NewPool(0, 1, 4, 3))
	if len(first) != 12 || len(again) != len(first) {
		t.Fatalf("got %d and %d addresses, want 12", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("address %d moved from %#x to %#x after other pools were built", i, first[i], again[i])
		}
		if i > 0 && first[i]-first[i-1] != CellSize {
			t.Fatalf("address %d is %d bytes after the one before, want %d", i, first[i]-first[i-1], CellSize)
		}
	}
}

func TestCellsAreIsolated(t *testing.T) {
	p := NewPool(0, 0, 4, 1)
	c, _ := p.AllocFree()
	cell0 := c.Cell(0)
	// Appending beyond a cell must not bleed into the next cell thanks to
	// the three-index slice expression.
	_ = append(cell0[:CellSize], 0xEE)
	if c.Cell(1)[0] == 0xEE {
		t.Fatal("write past cell 0 corrupted cell 1")
	}
}

func TestMapUnmap(t *testing.T) {
	p := NewPool(0, 0, 2, 2)
	if err := p.Map(); err != nil {
		t.Fatal(err)
	}
	if err := p.Map(); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("double map err = %v", err)
	}
	if err := p.Unmap(); err != nil {
		t.Fatal(err)
	}
	if err := p.Unmap(); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap err = %v", err)
	}
}

func TestLookup(t *testing.T) {
	p := NewPool(3, 1, 2, 2)
	if _, ok := p.lookup(ChunkID{NIC: 3, Ring: 1, Chunk: 1}); !ok {
		t.Fatal("lookup of valid chunk failed")
	}
	for _, id := range []ChunkID{
		{NIC: 0, Ring: 1, Chunk: 1},
		{NIC: 3, Ring: 0, Chunk: 1},
		{NIC: 3, Ring: 1, Chunk: 2},
		{NIC: 3, Ring: 1, Chunk: -1},
	} {
		if _, ok := p.lookup(id); ok {
			t.Errorf("lookup(%v) succeeded", id)
		}
	}
}

// TestPoolPropertyRandomOps drives a random alloc/capture/recycle sequence
// and checks the conservation invariants hold at every step.
func TestPoolPropertyRandomOps(t *testing.T) {
	r := vtime.NewRand(42)
	p := newMappedPool(t, 8, 16)
	var attached, captured []*Chunk
	var metas []Meta
	for step := 0; step < 20000; step++ {
		switch r.Intn(3) {
		case 0: // alloc
			c, err := p.AllocFree()
			if err == nil {
				attached = append(attached, c)
			} else if p.FreeCount() != 0 {
				t.Fatalf("step %d: alloc failed with %d free", step, p.FreeCount())
			}
		case 1: // capture a random attached chunk
			if len(attached) == 0 {
				continue
			}
			i := r.Intn(len(attached))
			c := attached[i]
			// Fill a random number of remaining cells first.
			for c.Count() < c.Cells() && r.Intn(2) == 0 {
				c.SetPacket(c.Count(), 1, 0)
			}
			m, err := p.Capture(c)
			if err != nil {
				t.Fatalf("step %d: capture: %v", step, err)
			}
			attached[i] = attached[len(attached)-1]
			attached = attached[:len(attached)-1]
			captured = append(captured, c)
			metas = append(metas, m)
		case 2: // recycle a random captured chunk
			if len(metas) == 0 {
				continue
			}
			i := r.Intn(len(metas))
			if err := p.Recycle(metas[i]); err != nil {
				t.Fatalf("step %d: recycle: %v", step, err)
			}
			metas[i] = metas[len(metas)-1]
			metas = metas[:len(metas)-1]
			captured[i] = captured[len(captured)-1]
			captured = captured[:len(captured)-1]
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if p.FreeCount()+len(attached)+len(captured) != p.R() {
			t.Fatalf("step %d: chunk conservation violated", step)
		}
	}
	st := p.Stats()
	if st.Allocated == 0 || st.Captured == 0 || st.Recycled == 0 {
		t.Fatalf("random walk did not exercise all transitions: %+v", st)
	}
}
