package app

import (
	"testing"

	"repro/internal/engines"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func buildFrame(tb testing.TB, src packet.IPv4, proto uint8) []byte {
	tb.Helper()
	b := packet.NewBuilder()
	buf := make([]byte, packet.MaxFrameLen)
	frame := b.Build(buf, packet.FlowKey{
		Src: src, Dst: packet.IPv4{10, 0, 0, 1},
		SrcPort: 1000, DstPort: 2000, Proto: proto,
	}, nil)
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}

func TestPktHandlerCostScalesWithX(t *testing.T) {
	costs := engines.DefaultCosts()
	h0 := NewPktHandler(0, costs, 1)
	h300 := NewPktHandler(300, costs, 1)
	frame := buildFrame(t, packet.IPv4{131, 225, 2, 1}, packet.ProtoUDP)
	if h0.Cost(0, frame) >= h300.Cost(0, frame) {
		t.Fatal("x=0 cost not below x=300 cost")
	}
	rate := 1 / h300.Costs.HandlerCost(h300.X).Seconds()
	if rate < 38000 || rate > 40000 {
		t.Fatalf("x=300 rate = %.0f", rate)
	}
}

func TestPktHandlerFilterCounts(t *testing.T) {
	h := NewPktHandler(0, engines.DefaultCosts(), 2)
	match := buildFrame(t, packet.IPv4{131, 225, 2, 1}, packet.ProtoUDP)
	miss := buildFrame(t, packet.IPv4{10, 1, 1, 1}, packet.ProtoUDP)
	tcp := buildFrame(t, packet.IPv4{131, 225, 2, 1}, packet.ProtoTCP)
	done := func() {}
	h.Handle(0, match, 0, done)
	h.Handle(1, miss, 0, done)
	h.Handle(0, tcp, 0, done)
	if h.Processed != 3 || h.Matched != 1 {
		t.Fatalf("processed %d matched %d", h.Processed, h.Matched)
	}
	if h.PerQueue[0] != 2 || h.PerQueue[1] != 1 {
		t.Fatalf("per-queue %v", h.PerQueue)
	}
}

func TestPktHandlerBadFilter(t *testing.T) {
	if _, err := NewPktHandlerFilter(0, engines.DefaultCosts(), 1, "no such primitive"); err == nil {
		t.Fatal("bad filter accepted")
	}
}

func TestPktHandlerForwarding(t *testing.T) {
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 1, RxQueues: 1, RingSize: 64, TxQueues: 1, TxRingSize: 8, Promiscuous: true})
	h := NewPktHandler(0, engines.DefaultCosts(), 1)
	h.ForwardTx = func(q int) *nic.TxRing { return n.Tx(0) }
	frame := buildFrame(t, packet.IPv4{131, 225, 2, 1}, packet.ProtoUDP)
	released := 0
	for i := 0; i < 10; i++ {
		h.Handle(0, frame, 0, func() { released++ })
	}
	// 8 fit the TX ring (done deferred), 2 overflow (done immediate).
	if h.TxDropped != 2 || released != 2 {
		t.Fatalf("txDropped %d released %d", h.TxDropped, released)
	}
	sched.Run()
	if released != 10 {
		t.Fatalf("after drain released = %d", released)
	}
	if n.Tx(0).Stats().Sent != 8 {
		t.Fatalf("sent %d", n.Tx(0).Stats().Sent)
	}
}

func TestQueueProfilerBins(t *testing.T) {
	p := NewQueueProfiler(2)
	done := func() {}
	p.Handle(0, nil, 5*vtime.Millisecond, done)  // bin 0
	p.Handle(0, nil, 15*vtime.Millisecond, done) // bin 1
	p.Handle(0, nil, 16*vtime.Millisecond, done) // bin 1
	p.Handle(1, nil, 25*vtime.Millisecond, done) // bin 2
	if got := p.Series(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("series 0 = %v", got)
	}
	if p.Total(0) != 3 || p.Total(1) != 1 {
		t.Fatalf("totals %d %d", p.Total(0), p.Total(1))
	}
	if p.Peak(0) != 2 {
		t.Fatalf("peak = %d", p.Peak(0))
	}
}

func TestQueueProfilerObservesImbalance(t *testing.T) {
	// End-to-end: border traffic through DNA into the profiler shows the
	// hot queue dominating, as in Figure 3 / Experiment 1.
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: 6, RingSize: 1024, Promiscuous: true})
	p := NewQueueProfiler(6)
	engines.NewDNA(sched, n, engines.DefaultCosts(), p)
	src := trace.NewBorder(trace.BorderConfig{Seed: 5, Scale: 0.02, Duration: 12 * vtime.Second})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if p.Total(0) <= p.Total(3) || p.Total(3) <= p.Total(1) {
		t.Fatalf("expected hot > warm > background: %d %d %d",
			p.Total(0), p.Total(3), p.Total(1))
	}
}
