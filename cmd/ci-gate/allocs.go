package main

import (
	"math"
	"testing"

	"repro/internal/analytics"
	"repro/internal/bench"
	"repro/internal/bpf"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// measureAllocs runs testing.AllocsPerRun over the simulator's
// zero-allocation hot paths, plus one end-to-end fleet run measured per
// offered packet. The names key the budget entries in baselines.json:
// every hot-path budget committed there is zero; the fleet budget is a
// hand-set per-packet ceiling.
func measureAllocs() map[string]float64 {
	out := make(map[string]float64)

	reg := metrics.NewRegistry()
	c := reg.Counter("gate_counter_total", metrics.L("queue", "0"))
	g := reg.Gauge("gate_gauge", metrics.L("queue", "0"))
	h := reg.Histogram("gate_hist_ns", metrics.L("queue", "0"))
	out["metrics_counter_inc"] = testing.AllocsPerRun(1000, func() { c.Inc() })
	out["metrics_gauge_set"] = testing.AllocsPerRun(1000, func() { g.Set(42) })
	var v int64
	out["metrics_histogram_record"] = testing.AllocsPerRun(1000, func() {
		v++
		h.Record(v)
	})

	// The scheduler's steady-state cycle: one event scheduled and one
	// dispatched per iteration, over a warm slot pool.
	s := vtime.NewScheduler()
	var tick func()
	tick = func() { s.At(s.Now()+1, tick) }
	s.At(0, tick)
	out["vtime_schedule_step"] = testing.AllocsPerRun(1000, func() { s.Step() })

	// The flight recorder's disabled contract: with tracing off (nil
	// recorder), the hooks left in every hot path must cost zero
	// allocations. Exercises one hook from each family.
	var rec *obs.Recorder
	flow := packet.FlowKey{SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	out["obs_disabled_hooks"] = testing.AllocsPerRun(1000, func() {
		rec.PktArrive(0, 0, flow, 60, 1)
		rec.PktDMA(0, 0, 1, 1)
		rec.DescToCell(0, 0, 1, 0, 0, 1)
		rec.CellDeliver(0, 0, 0, 0, 0, 1)
		rec.Processed(0, 0, 1)
		rec.ChunkRecycle(0, 0, 1)
		rec.PendingDrop(obs.DropDescDepletion, 0, 0, 1)
		rec.StageCost("e", 0, "s", 1)
		_ = rec.DescClaim(0, 0, 1, 1)
		_ = rec.Sampled(flow)
	})

	// Same contract for the fleet observability hooks: every journey and
	// aggregation-plane hook on a nil recorder, and the nil health
	// sampler's Observe/Finish, must be free — the fleet hot paths carry
	// them unconditionally.
	var hs *obs.HealthSampler
	out["obs_disabled_fleet_hooks"] = testing.AllocsPerRun(1000, func() {
		rec.JourneySteer(0, flow, 1, 1)
		rec.JourneyDrop(obs.DropHostLostCrash, 1)
		rec.JourneyCapture(1, 1)
		rec.JourneyEnqueue(1, 1)
		rec.JourneyLink(1, 1)
		rec.JourneyLost(1, obs.DropInFlightHeadDrop, 1)
		rec.FleetEmit(0, 1, 1)
		rec.FleetReject(0, 1, 1)
		rec.DropN(obs.DropStalenessReject, 0, -1, 1, 1)
		hs.Observe(1)
		hs.Finish(1)
	})

	// The analytics stage's steady-state update: warm the bounded
	// tables over the flow set first, so the measured iterations take
	// the sketch/heavy-hitter/flow-table update paths without growth.
	stage := analytics.New(analytics.Config{}, nil, nil)
	decs := make([]packet.Decoded, 64)
	for i := range decs {
		decs[i] = packet.Decoded{
			Flow: packet.FlowKey{
				Src: packet.IPv4{10, 0, byte(i >> 4), byte(i)}, Dst: packet.IPv4{10, 1, 2, 3},
				SrcPort: uint16(1024 + i), DstPort: 53, Proto: packet.ProtoUDP,
			},
			Frame: make([]byte, 60),
		}
		stage.Update(0, &decs[i], vtime.Time(i))
	}
	var di int
	out["analytics_update"] = testing.AllocsPerRun(1000, func() {
		stage.Update(0, &decs[di&63], vtime.Time(di))
		di++
	})

	// The batch filter entry point over a border-trace chunk: the
	// accept bitmap is caller-owned, so the call itself allocates
	// nothing regardless of the fused/bytecode backend split.
	src := trace.NewBorder(trace.BorderConfig{Queues: 1, Duration: vtime.Second, Seed: 9})
	frames := make([][]byte, 0, 256)
	for len(frames) < 256 {
		f, _, ok := src.Next()
		if !ok {
			break
		}
		cp := make([]byte, len(f))
		copy(cp, f)
		frames = append(frames, cp)
	}
	flt := bpf.MustCompileFlat("udp and net 131.225.2", 65535)
	accept := make([]uint64, (len(frames)+63)/64)
	out["bpf_filter_chunk"] = testing.AllocsPerRun(200, func() {
		flt.FilterChunk(frames, accept)
	})

	// The fleet tier end to end: one fleet.Run of the host-kill storm,
	// construction and report included, per offered packet. The capture,
	// merge and ledger path allocates nothing per packet and batch arrays
	// are recycled; what remains is per batch (the mailbox payload) and
	// per run.
	storm := bench.FleetStormConfig()
	var stormErr error
	perRun := testing.AllocsPerRun(1, func() {
		_, stormErr = fleet.Run("fleet_chaos_host_kill", storm)
	})
	perPkt := perRun / float64(storm.Packets)
	if stormErr != nil {
		perPkt = math.Inf(1) // fails the budget; the scenario check names the error
	}
	out["fleet_run_per_pkt"] = perPkt

	return out
}
