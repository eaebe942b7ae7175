package bench

import (
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// ChaosRun drives a constant-rate workload into an engine while a
// seeded fault injector perturbs the NIC, the memory pools, and the
// consumer threads on the same virtual clock. Everything — traffic,
// fault schedule, recovery responses — is derived from the two seeds,
// so a chaos run is exactly as replayable as a clean one: same seeds,
// same digest.
type ChaosRun struct {
	Spec    EngineSpec
	Queues  int // default 1
	X       int
	Packets uint64
	// FrameLen (default 60) and PacketsPerSec (default wire rate), as in
	// ConstantRun.
	FrameLen      int
	PacketsPerSec float64
	Seed          uint64

	// Faults is the deterministic fault schedule; FaultSeed seeds the
	// injector's own randomness (corruption byte positions etc.),
	// independent of the traffic seed.
	Faults    faults.Schedule
	FaultSeed uint64

	// Trace attaches a flight recorder to the NIC and the injector so
	// fault windows annotate overlapping packet spans.
	Trace *obs.Recorder
}

// RunChaos executes the run to completion. The engine under test gets
// the injector through the NIC; WireCAP additionally activates its
// recovery machinery, baselines take the faults with no cure.
func RunChaos(cfg ChaosRun) (Result, error) {
	if cfg.Queues == 0 {
		cfg.Queues = 1
	}
	return Host{
		Spec: cfg.Spec, Queues: cfg.Queues, X: cfg.X,
		Faults: cfg.Faults, FaultSeed: cfg.FaultSeed, Trace: cfg.Trace,
		Source: constantRate(cfg.Packets, cfg.FrameLen, cfg.PacketsPerSec, cfg.Queues, cfg.Seed),
	}.Run()
}

// ChaosScenarios is the chaos regression suite: three deterministic
// fault storms, each aimed at a different failure class the recovery
// machinery must absorb. They run under the same ci-gate digest
// discipline as the steady-state scenarios — graceful degradation is
// regression-tested, not aspirational.
func ChaosScenarios() []Scenario {
	chaos := func(name, about string, cfg ChaosRun) Scenario {
		return hostScenario(name, about, func(rec *obs.Recorder) (Result, error) {
			c := cfg
			c.Trace = rec
			return RunChaos(c)
		})
	}
	// X=300 caps one handler thread near 38.8 kp/s, so the offered rates
	// below sit under per-queue capacity: the steady state is lossless
	// and every drop in the report is attributable to the fault storm.
	return []Scenario{
		chaos("chaos_queue_hang",
			"permanent hang of queue 1: quarantine + flow re-steer to healthy queues",
			ChaosRun{
				Spec: WireCAPA(64, 32, 60), Queues: 4, X: 300,
				Packets: 12_000, PacketsPerSec: 120_000,
				Seed: 21, FaultSeed: 101,
				Faults: faults.Schedule{
					{At: 10 * vtime.Millisecond, Kind: faults.QueueHang, Queue: 1},
				},
			}),
		chaos("chaos_pool_exhaustion",
			"long handler stall exhausts the pool, then transient alloc faults: reclaim + bounded retry",
			ChaosRun{
				Spec: WireCAPB(40, 32), Queues: 1, X: 300,
				Packets: 2_700, PacketsPerSec: 30_000,
				Seed: 22, FaultSeed: 102,
				Faults: faults.Schedule{
					{At: 10 * vtime.Millisecond, Dur: 50 * vtime.Millisecond, Kind: faults.HandlerStall},
					{At: 70 * vtime.Millisecond, Dur: 5 * vtime.Millisecond, Kind: faults.AllocFail},
				},
			}),
		chaos("chaos_corrupt_dma",
			"DMA corruption burst: frame-integrity validation drops bad frames, delivery continues",
			ChaosRun{
				Spec: WireCAPB(64, 32), Queues: 1, X: 300,
				Packets: 2_400, PacketsPerSec: 30_000,
				Seed: 23, FaultSeed: 103,
				Faults: faults.Schedule{
					{At: 20 * vtime.Millisecond, Dur: 30 * vtime.Millisecond,
						Kind: faults.DMACorrupt, Severity: 0.25},
				},
			}),
	}
}

// DegradationSchedule is the composite fault storm the cross-engine
// comparison (and the acceptance test) applies identically to WireCAP
// and every baseline: a permanent hang of queue 1 plus a long consumer
// stall on queue 2.
func DegradationSchedule() faults.Schedule {
	return faults.Schedule{
		{At: 10 * vtime.Millisecond, Kind: faults.QueueHang, Queue: 1},
		{At: 15 * vtime.Millisecond, Dur: 30 * vtime.Millisecond, Kind: faults.HandlerStall, Queue: 2},
	}
}

// DegradationRun executes the composite storm against one engine. All
// parameters other than the spec are fixed so every engine sees the
// identical workload and fault schedule.
func DegradationRun(spec EngineSpec) (Result, error) {
	return RunChaos(ChaosRun{
		Spec: spec, Queues: 4, X: 300,
		Packets: 12_000, PacketsPerSec: 120_000,
		Seed: 31, FaultSeed: 131, Faults: DegradationSchedule(),
	})
}

// Chaos renders the chaos experiment: first the three regression
// scenarios' outcome rows, then the graceful-degradation comparison —
// the same composite storm against WireCAP-A and every baseline, where
// the baselines take the faults with no recovery.
func Chaos(opt Options, w io.Writer) error {
	sc := Table{
		ID:    "chaos",
		Title: "Chaos scenarios: deterministic fault storms under WireCAP recovery",
		Columns: []string{"scenario", "engine", "sent", "delivered",
			"capture_drops", "delivery_drops", "corrupt_drops", "reclaim_drops",
			"drop_rate", "digest"},
	}
	for _, s := range ChaosScenarios() {
		rep, err := s.Report()
		if err != nil {
			return err
		}
		t := rep.Totals
		sc.Rows = append(sc.Rows, []string{
			s.Name, rep.Engine,
			fmt.Sprint(rep.Sent), fmt.Sprint(t.Delivered),
			fmt.Sprint(t.CaptureDrops), fmt.Sprint(t.DeliveryDrops),
			fmt.Sprint(t.CorruptDrops), fmt.Sprint(t.ReclaimDrops),
			fmt.Sprintf("%.4f", rep.DropRate), rep.Digest(),
		})
	}
	if err := opt.render(sc, w); err != nil {
		return err
	}

	deg := Table{
		ID:    "chaos-degradation",
		Title: "Graceful degradation: composite storm (queue hang + handler stall), same seeds for every engine",
		Columns: []string{"engine", "sent", "delivered", "delivered_frac",
			"capture_drops", "delivery_drops"},
	}
	for _, spec := range []EngineSpec{
		WireCAPA(64, 32, 60), DNA, NETMAP, PFRing, PSIOE, RawSocket,
	} {
		res, err := DegradationRun(spec)
		if err != nil {
			return err
		}
		t := res.Stats.Totals()
		deg.Rows = append(deg.Rows, []string{
			spec.Name(), fmt.Sprint(res.Sent), fmt.Sprint(t.Delivered),
			fmt.Sprintf("%.4f", ratio(t.Delivered, res.Sent)),
			fmt.Sprint(t.CaptureDrops), fmt.Sprint(t.DeliveryDrops),
		})
	}
	return opt.render(deg, w)
}
