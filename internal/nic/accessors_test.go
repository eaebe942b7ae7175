package nic

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/vtime"
)

func TestNICAccessors(t *testing.T) {
	sched := vtime.NewScheduler()
	n := New(sched, Config{ID: 7, RxQueues: 3, RingSize: 16, TxQueues: 2, Promiscuous: true})
	if n.ID() != 7 || n.RxQueues() != 3 || n.TxQueues() != 2 {
		t.Fatalf("accessors: id %d rx %d tx %d", n.ID(), n.RxQueues(), n.TxQueues())
	}
	if n.LineRateBps() != LineRate10G {
		t.Fatalf("line rate %v", n.LineRateBps())
	}
	r := n.Rx(1)
	if r.id != 1 || r.fill != 0 {
		t.Fatalf("ring id %d fill %d", r.id, r.fill)
	}
	r.SetBusOverhead(12)
	if r.busOverhead != 12 {
		t.Fatal("bus overhead not stored")
	}
	r.SetBusOverhead(-4)
	if r.busOverhead != 0 {
		t.Fatal("negative overhead not clamped")
	}
	tx := n.Tx(1)
	if tx.id != 1 || len(tx.queue) != 0 {
		t.Fatalf("tx id %d queued %d", tx.id, len(tx.queue))
	}
}

func TestStatsTotalsHelpers(t *testing.T) {
	s := Stats{Rx: []RxStats{
		{Received: 5, WireDrops: 2, BusDrops: 1},
		{Received: 3, WireDrops: 4},
	}}
	if s.TotalWireDrops() != 7 {
		t.Fatalf("TotalWireDrops = %d", s.TotalWireDrops())
	}
	if s.TotalReceived() != 8 {
		t.Fatalf("TotalReceived = %d", s.TotalReceived())
	}
}

func TestDescStateStrings(t *testing.T) {
	// An ordered table, not a map: failures report in a stable order.
	for _, tc := range []struct {
		st   DescState
		want string
	}{
		{DescEmpty, "empty"},
		{DescReady, "ready"},
		{DescUsed, "used"},
		{DescState(9), "DescState(9)"},
	} {
		if got := tc.st.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.st, got, tc.want)
		}
	}
}

func TestRSSCustomKeyAndTable(t *testing.T) {
	// A custom indirection table that sends everything to queue 2.
	table := make([]int, IndirectionEntries)
	for i := range table {
		table[i] = 2
	}
	s := &RSSSteering{key: DefaultRSSKey, tt: newToeplitzTable(DefaultRSSKey[:]), ind: &Indirection{table: table}}
	b := packet.NewBuilder()
	buf := make([]byte, packet.MaxFrameLen)
	frame := b.Build(buf, packet.FlowKey{
		Src: packet.IPv4{9, 9, 9, 9}, Dst: packet.IPv4{8, 8, 8, 8},
		SrcPort: 77, DstPort: 88, Proto: packet.ProtoUDP,
	}, nil)
	var d packet.Decoded
	if err := packet.Decode(frame, &d); err != nil {
		t.Fatal(err)
	}
	if q, ok := s.Queue(&d); !ok || q != 2 {
		t.Fatalf("custom table -> queue %d ok %v", q, ok)
	}
	// Changing the key changes (almost surely) which entry is picked; the
	// all-2 table still yields 2.
	hashBefore := RSSHash(DefaultRSSKey[:], d.Flow)
	var key [40]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	s.key, s.tt = key, newToeplitzTable(key[:])
	if q, _ := s.Queue(&d); q != 2 {
		t.Fatal("custom key broke the indirection table")
	}
	if RSSHash(key[:], d.Flow) == hashBefore {
		t.Fatal("changing the key did not change the hash")
	}
}

func TestRSSRejectsNonIP(t *testing.T) {
	s := NewRSS(4)
	var d packet.Decoded
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	_ = packet.Decode(frame, &d)
	if _, ok := s.Queue(&d); ok {
		t.Fatal("RSS classified a non-IP frame")
	}
}

func TestNewRingPanicsOnBadSize(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "ring size") {
			t.Fatalf("recover = %v", r)
		}
	}()
	newRxRing(0, 0, 0)
}
