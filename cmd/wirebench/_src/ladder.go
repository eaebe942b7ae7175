package main

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/bench"
	"repro/internal/bpf"
	"repro/internal/bus"
	"repro/internal/engines"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/vtime/domain"
)

// A rung is one ladder entry: testing.Benchmark over one public function
// of one layer. zeroAlloc marks the hot paths that must not allocate.
type rung struct {
	name      string
	zeroAlloc bool
	bench     func(b *testing.B)
}

type rungResult struct {
	name   string
	ns     float64 // per op
	allocs float64 // per op
	zero   bool    // zeroAlloc entry
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkU32  uint32
	sinkBool bool
	sinkErr  error
	sinkSnap metrics.Snapshot
	// hooksOff is the nil flight recorder every untraced run carries.
	hooksOff *obs.Recorder
)

// runLadder measures every rung for about benchtime each.
func runLadder(benchtime string) ([]rungResult, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("ladder benchtime %q: %w", benchtime, err)
	}
	frame := sampleFrame()
	var out []rungResult
	for _, r := range ladder(frame) {
		res := testing.Benchmark(r.bench)
		if res.N == 0 {
			return nil, fmt.Errorf("ladder %s: benchmark failed", r.name)
		}
		out = append(out, rungResult{
			name:   r.name,
			ns:     float64(res.T.Nanoseconds()) / float64(res.N),
			allocs: float64(res.MemAllocs) / float64(res.N),
			zero:   r.zeroAlloc,
		})
	}
	return out, nil
}

// sampleFrame is the first 60-byte frame of the fig8 traffic.
func sampleFrame() []byte {
	frame, _, _ := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 1, Seed: 1}).Next()
	return append([]byte(nil), frame...)
}

func ladder(frame []byte) []rung {
	return []rung{
		{"vtime.schedule_step", true, func(b *testing.B) {
			// Pop the earliest event, which schedules its successor, over
			// a million pending events.
			s := vtime.NewScheduler()
			r := vtime.NewRand(1)
			nop := func() {}
			for i := 0; i < 1_000_000; i++ {
				s.At(vtime.Time(1+r.Intn(1<<30)), nop)
			}
			var tick func()
			tick = func() { s.At(s.Now()+1, tick) }
			s.At(0, tick)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		}},
		{"nic.deliver_accept", true, func(b *testing.B) {
			// The DMA branch: OnRx refills each descriptor as it fills.
			n := nic.New(vtime.NewScheduler(), nic.Config{RxQueues: 1, RingSize: 1024, Promiscuous: true})
			rx := n.Rx(0)
			for i := 0; i < rx.Size(); i++ {
				rx.Refill(i, make([]byte, mem.CellSize))
			}
			rx.OnRx(func(i int) { rx.Refill(i, rx.Desc(i).Buf) })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = n.Deliver(frame, vtime.Time(i))
			}
		}},
		{"nic.deliver_drop", true, func(b *testing.B) {
			// The descriptor-depletion branch: no descriptor is ever ready.
			n := nic.New(vtime.NewScheduler(), nic.Config{RxQueues: 1, RingSize: 1024, Promiscuous: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = n.Deliver(frame, vtime.Time(i))
			}
		}},
		{"nic.rss_hash", false, func(b *testing.B) {
			h := nic.NewFlowHasher(nic.DefaultRSSKey)
			r := vtime.NewRand(2)
			flows := make([]packet.FlowKey, 64)
			for i := range flows {
				flows[i] = trace.FlowForQueue(r, 1, 0, packet.ProtoUDP, trace.FermilabNet, 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU32 = h.Hash(flows[i&63])
			}
		}},
		{"packet.decode", false, func(b *testing.B) {
			var d packet.Decoded
			for i := 0; i < b.N; i++ {
				sinkErr = packet.Decode(frame, &d)
			}
		}},
		{"mem.chunk_cycle", true, func(b *testing.B) {
			// One op is one packet of a chunk's life: the chunk's
			// AllocFree, Capture and Recycle are shared by its M packets.
			const m = 256
			p := mem.NewPool(0, 0, m, 100)
			if err := p.Map(); err != nil {
				b.Fatal(err)
			}
			c, err := p.AllocFree()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % m
				c.SetPacket(k, len(frame), vtime.Time(i))
				if k == m-1 {
					meta, err := p.Capture(c)
					if err == nil {
						err = p.Recycle(meta)
					}
					if err == nil {
						c, err = p.AllocFree()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"bpf.match", true, func(b *testing.B) {
			flt, err := bpf.CompileFlat("131.225.2 and udp", 65535)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = flt.Match(frame)
			}
		}},
		{"obs.hooks_off", true, func(b *testing.B) {
			// The hooks a fig8 packet passes, on the nil recorder of an
			// untraced run.
			var flow packet.FlowKey
			for i := 0; i < b.N; i++ {
				ts := vtime.Time(i)
				hooksOff.PktArrive(0, 0, flow, len(frame), ts)
				hooksOff.PktDMA(0, 0, i&1023, ts)
				hooksOff.DescToCell(0, 0, i&1023, 1, i&255, ts)
				hooksOff.CellDeliver(0, 1, i&255, 0, 0, ts)
				hooksOff.StageCost("WireCAP", 0, "process", ts)
				hooksOff.Processed(0, 0, ts)
			}
		}},
		{"metrics.snapshot", false, func(b *testing.B) {
			// The registry of a fig8 run: NIC plus WireCAP core series.
			sched := vtime.NewScheduler()
			reg := metrics.NewRegistry()
			n := nic.New(sched, nic.Config{RxQueues: 1, RingSize: 1024, Promiscuous: true, Metrics: reg})
			costs := engines.DefaultCosts()
			if _, err := bench.WireCAPB(256, 100).Build(sched, n, costs, app.NewPktHandler(0, costs, 1)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSnap = reg.Snapshot(vtime.Time(i))
			}
		}},
		{"domain.send_deliver", false, func(b *testing.B) {
			// A message bounced through one port: each delivery sends the
			// next, as fleet hosts and the aggregator do.
			sim := domain.New(domain.Config{Domains: 1})
			d := sim.Domain(0)
			tx := sim.NewTx(d)
			left := b.N
			payload := &struct{ n int }{}
			var port *domain.Port
			port = sim.NewPort(d, vtime.Microsecond, func(vtime.Time, any) {
				if left--; left > 0 {
					tx.Send(port, payload)
				}
			})
			d.Scheduler().At(0, func() { tx.Send(port, payload) })
			b.ResetTimer()
			sim.Run()
		}},
		{"bus.try_transfer", false, func(b *testing.B) {
			// A fleet aggregation link: 400 MB/s, 64 KB burst, 64 B per
			// message, offered 256 B every µs so every transfer fits.
			l := bus.New(bus.Config{BytesPerSec: 400e6, BurstBytes: 64 * 1024, PerTransferOverhead: 64})
			for i := 0; i < b.N; i++ {
				sinkBool = l.TryTransfer(vtime.Time(i)*vtime.Microsecond, 256, 0)
			}
		}},
	}
}

func rungNs(rs []rungResult, name string) float64 {
	for _, r := range rs {
		if r.name == name {
			return r.ns
		}
	}
	return 0
}
