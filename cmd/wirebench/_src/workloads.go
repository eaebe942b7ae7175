package main

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/bench"
	"repro/internal/engines"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// A workload is one fixed input that a rep runs to completion. Single-host
// workloads list their engine runs, executed one after another; the fleet
// workload is one fleet.Run.
type workload struct {
	name  string
	seed  uint64 // default traffic seed
	runs  []hostRun
	fleet *fleet.Config
}

// A hostRun is one single-host engine run: constant-rate traffic when
// packets > 0 (the Figures 8-10 setup of bench.RunConstant), else the
// border-router profile lasting seconds (the Table 1 setup of
// bench.RunBorder).
type hostRun struct {
	spec    bench.EngineSpec
	queues  int
	x       int
	packets uint64
	seconds float64
}

// workloads returns the benchmark's workloads with every input size
// multiplied by scale: 1 in the benchmark, smaller in tests.
func workloads(scale float64) []workload {
	n := func(p uint64) uint64 { return uint64(float64(p) * scale) }
	var fig9 []hostRun
	for _, spec := range []bench.EngineSpec{
		bench.DNA, bench.PFRing, bench.NETMAP, bench.WireCAPB(256, 100), bench.WireCAPB(256, 500),
	} {
		fig9 = append(fig9, hostRun{spec: spec, queues: 1, x: 300, packets: n(1_000_000)})
	}
	return []workload{
		// Smallest frames at wire rate with a handler that keeps up: every
		// packet takes NIC DMA, chunk capture, one BPF match and recycle.
		{
			name: "fig8_wire64", seed: 1,
			runs: []hostRun{{spec: bench.WireCAPB(256, 100), queues: 1, packets: n(2_000_000)}},
		},
		// The same traffic at x=300 into the Figure 9 engines: nearly every
		// packet dies on the NIC's descriptor-depletion branch.
		{
			name: "fig9_overload_mix", seed: 1,
			runs: fig9,
		},
		// Bursty heavy-tailed flows over six RSS queues: the border
		// generator, Toeplitz steering, buddy offload and flush timers.
		{
			name: "table1_border6q", seed: 11,
			runs: []hostRun{{spec: bench.WireCAPA(256, 100, 60), queues: 6, x: 300, seconds: 4 * scale}},
		},
		// The fleet tier under host-level chaos; nic, core and mem idle.
		{
			name: "fleet_storm6", seed: 7,
			fleet: &fleet.Config{Hosts: 6, Packets: n(300_000), Flows: 256, Faults: stormSchedule()},
		},
	}
}

// stormSchedule is the fault schedule of the fleet_chaos_host_kill gate
// scenario (bench.FleetScenarios): one permanent host kill, one crash
// with restart, and an aggregation-link flap on a survivor.
func stormSchedule() faults.Schedule {
	return faults.Schedule{
		{Kind: faults.HostCrash, NIC: 1, At: 5 * vtime.Millisecond},
		{Kind: faults.HostCrash, NIC: 4, At: 12 * vtime.Millisecond, Dur: 8 * vtime.Millisecond},
		{Kind: faults.AggLinkDown, NIC: 2, At: 8 * vtime.Millisecond, Dur: 600 * vtime.Microsecond},
	}
}

func workloadByName(name string, scale float64) (workload, bool) {
	for _, w := range workloads(scale) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one rep produced, for the checks and the counts.
type outcome struct {
	offered   uint64
	delivered uint64
	digest    string
	err       error // a failed check; the rep counts as failed

	delays stats.Histogram // capture-to-processing delay, all engine runs

	// Counts from the runs' own reports.
	rxAccepted, chunks, offloaded, copies, syscalls uint64
	chunkPkts                                       uint64 // packets received by WireCAP engines
	batches, retries, steerMoves, quarantines       uint64
}

// runRep executes one rep of w: every engine run of a single-host
// workload, with delay accounting on, or the fleet run. Phase spans go to
// tr; its call-level wrappers are active only while tr.detail is set.
func runRep(w workload, seed uint64, tr *tracer) outcome {
	var out outcome
	if w.fleet != nil {
		runFleet(w, seed, tr, &out)
		return out
	}
	digests := make([]string, 0, len(w.runs))
	for _, r := range w.runs {
		rep, digest, err := runHost(w.name, r, seed, tr, true, &out)
		if err != nil {
			out.err = err
			return out
		}
		digests = append(digests, digest)
		if got := rep.Totals.Delivered + rep.Totals.TotalDrops(); rep.Sent != got {
			out.err = fmt.Errorf("%s: %s: sent %d != delivered %d + drops %d",
				w.name, rep.Engine, rep.Sent, rep.Totals.Delivered, rep.Totals.TotalDrops())
		}
	}
	out.digest = combineDigests(digests)
	return out
}

// runHost assembles and runs one engine run from public constructors in
// the order bench.RunConstant / bench.RunBorder use, so that with delay
// accounting off its report digest equals theirs (the harness-equivalence
// test pins this). It returns the run's report and its digest.
func runHost(name string, r hostRun, seed uint64, tr *tracer, delays bool, out *outcome) (bench.RunReport, string, error) {
	setup := tr.open(spanSetup)
	sched := vtime.NewScheduler()
	reg := metrics.NewRegistry()

	s := tr.openDetail(spanNICSetup)
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: r.queues, RingSize: 1024, Promiscuous: true, Metrics: reg})
	tr.close(s)

	costs := engines.DefaultCosts()
	s = tr.openDetail(spanAppSetup)
	h := app.NewPktHandler(r.x, costs, r.queues)
	tr.close(s)
	if delays {
		h.Clock = sched
	}

	s = tr.openDetail(buildSpan(r.spec))
	eng, err := r.spec.Build(sched, n, costs, tr.handler(h))
	tr.close(s)
	if err != nil {
		tr.close(setup)
		return bench.RunReport{}, "", err
	}

	s = tr.openDetail(spanTraceSetup)
	var src trace.Source
	if r.packets > 0 {
		src = trace.NewConstantRate(trace.ConstantRateConfig{
			Packets: r.packets, FrameLen: 60, LineRateBps: n.LineRateBps(), Seed: seed,
		})
	} else {
		src = trace.NewBorder(trace.BorderConfig{
			Queues: r.queues, Duration: vtime.Time(r.seconds * float64(vtime.Second)), Seed: seed,
		})
	}
	st := trace.Drive(sched, n, tr.source(src), nil)
	tr.close(s)
	tr.close(setup)

	run := tr.open(spanRun)
	sched.Run()
	tr.close(run)

	report := tr.open(spanReport)
	res := bench.Result{Spec: r.spec, Sent: st.Sent, Stats: eng.Stats(), Handler: h, Metrics: reg, End: sched.Now()}
	rep := res.Report(name)
	digest := rep.Digest()
	tr.close(report)

	out.offered += rep.Sent
	out.delivered += rep.Totals.Delivered
	out.delays.Merge(&h.DelayHist)
	snap := rep.Metrics
	out.rxAccepted += snap.CounterTotal("nic_rx_received_total")
	out.chunks += snap.CounterTotal("wirecap_chunks_captured_total")
	out.offloaded += snap.CounterTotal("wirecap_chunks_offloaded_total")
	out.copies += snap.CounterTotal("engine_copies_total")
	out.syscalls += snap.CounterTotal("engine_syscalls_total")
	if isWireCAP(r.spec) {
		out.chunkPkts += rep.Totals.Received
	}
	return rep, digest, nil
}

// runFleet times fleet.Run as one opaque span. Its setup is the same
// config offering a single packet: fleet.Run builds and drains in one
// call, so a one-packet run is the closest outside measure of what every
// run pays before traffic flows.
func runFleet(w workload, seed uint64, tr *tracer, out *outcome) {
	cfg := *w.fleet
	cfg.Seed = seed
	tiny := cfg
	tiny.Packets = 1

	setup := tr.open(spanSetup)
	_, err := fleet.Run(w.name, tiny)
	tr.close(setup)
	if err != nil {
		out.err = err
		return
	}

	run := tr.open(spanFleetRun)
	res, err := fleet.Run(w.name, cfg)
	tr.close(run)
	if err != nil {
		out.err = err
		return
	}

	report := tr.open(spanReport)
	rep := res.Report
	out.digest = rep.Digest()
	tr.close(report)

	out.offered = rep.FleetSent
	out.delivered = rep.Aggregated
	out.batches = rep.Batches
	out.steerMoves = rep.SteerMoves
	out.quarantines = rep.Quarantines
	for _, h := range rep.PerHost {
		out.retries += h.Retries
	}
}

func isWireCAP(s bench.EngineSpec) bool {
	return s.Kind == bench.KindWireCAPBasic || s.Kind == bench.KindWireCAPAdvanced
}

// buildSpan names the layer EngineSpec.Build constructs: the WireCAP core
// (with its per-queue mem pools) or a baseline engine.
func buildSpan(s bench.EngineSpec) spanKind {
	if isWireCAP(s) {
		return spanCoreSetup
	}
	return spanEnginesSetup
}
