package fleet

import (
	"repro/internal/packet"
	"repro/internal/vtime"
)

// frame is one offered wire frame: the flow tuple, the flow-local
// sequence number the generator stamped (the ground truth the per-flow
// order property is checked against), and the frame length.
type frame struct {
	flow    packet.FlowKey
	flowSeq uint64
	len     int
}

// generator replays the fleet's shared traffic: a constant-rate stream
// over a fixed flow population with seeded per-packet flow choice and
// sizes. Every host runs its own instance with the SAME seed — the
// instances emit bit-identical streams, and each host captures exactly
// the frames its steering replica assigns to it. That models one tapped
// wire fanned out to every capture box without any mailbox traffic on
// the offered path, so the offered stream itself never depends on the
// aggregation plane.
type generator struct {
	sched    *vtime.Scheduler
	r        *vtime.Rand
	flows    []packet.FlowKey
	seq      []uint64
	interval vtime.Time
	left     uint64
	sink     func(frame)
	stepFn   func() // g.step, bound once so rescheduling does not allocate
}

// newFlowPool derives the deterministic flow population.
func newFlowPool(seed uint64, flows int) []packet.FlowKey {
	r := vtime.NewRand(vtime.SplitSeed(seed, 0xf10))
	pool := make([]packet.FlowKey, flows)
	for i := range pool {
		proto := packet.ProtoUDP
		if r.Intn(2) == 0 {
			proto = packet.ProtoTCP
		}
		pool[i] = packet.FlowKey{
			Src:     packet.IPv4{10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))},
			Dst:     packet.IPv4{192, 168, byte(r.Intn(16)), byte(r.Intn(256))},
			SrcPort: uint16(1024 + r.Intn(60000)),
			DstPort: uint16(1 + r.Intn(1024)),
			Proto:   proto,
		}
	}
	return pool
}

// newGenerator builds one host's replica of the shared stream and
// schedules its first arrival.
func newGenerator(sched *vtime.Scheduler, seed uint64, flows []packet.FlowKey,
	packets uint64, interval vtime.Time, sink func(frame)) *generator {
	g := &generator{
		sched:    sched,
		r:        vtime.NewRand(vtime.SplitSeed(seed, 0x9e1)),
		flows:    flows,
		seq:      make([]uint64, len(flows)),
		interval: interval,
		left:     packets,
		sink:     sink,
	}
	g.stepFn = g.step
	if g.left > 0 {
		sched.After(interval, g.stepFn)
	}
	return g
}

// step emits one frame and schedules the next.
//
//wirecap:hotpath
func (g *generator) step() {
	idx := g.r.Intn(len(g.flows))
	g.seq[idx]++
	fr := frame{
		flow:    g.flows[idx],
		flowSeq: g.seq[idx],
		len:     60 + g.r.Intn(1200),
	}
	g.left--
	g.sink(fr)
	if g.left > 0 {
		g.sched.After(g.interval, g.stepFn)
	}
}
