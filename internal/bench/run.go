package bench

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/bus"
	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Result is the outcome of one engine run.
type Result struct {
	Spec      EngineSpec
	Sent      uint64
	Stats     engines.Stats
	Handler   *app.PktHandler
	Forwarded uint64 // packets that left the forwarding NIC (Fig 13/14)
	// Metrics is the run-wide registry every simulated component
	// (NIC, engine, WireCAP core) registered into; End is the virtual
	// time at which the event queue drained. Together they key a
	// Snapshot for RunReport.
	Metrics *metrics.Registry
	End     vtime.Time
	// Last is the virtual time the source offered its last packet.
	Last vtime.Time
	// Engine and NIC are the capture engine and receive NIC the run
	// built, for callers that read their own counters.
	Engine engines.Engine
	NIC    *nic.NIC
	// Analytics is the streaming-analytics stage report for
	// RunAnalytics runs; nil elsewhere.
	Analytics *analytics.Report
}

// DropRate is total drops over offered packets — the paper's metric. For
// forwarding runs it is computed end to end (sender to receiver).
func (r Result) DropRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	if r.Handler != nil && r.Handler.ForwardTx != nil {
		return 1 - float64(r.Forwarded)/float64(r.Sent)
	}
	return r.Stats.DropRate(r.Sent)
}

// CaptureDropRate and DeliveryDropRate split the two drop kinds for a
// single queue (Table 1).
func (r Result) CaptureDropRate(q int, offered uint64) float64 {
	if offered == 0 {
		return 0
	}
	return float64(r.Stats.PerQueue[q].CaptureDrops) / float64(offered)
}

// DeliveryDropRate returns queue q's delivery-drop fraction of offered.
func (r Result) DeliveryDropRate(q int, offered uint64) float64 {
	if offered == 0 {
		return 0
	}
	return float64(r.Stats.PerQueue[q].DeliveryDrops) / float64(offered)
}

// ConstantRun drives P fixed-size packets at a fixed rate into a
// single-queue NIC under the given engine and pkt_handler load x —
// the Figures 8-10 setup.
type ConstantRun struct {
	Spec    EngineSpec
	Packets uint64
	X       int
	// FrameLen (default 60) and PacketsPerSec (default wire rate).
	FrameLen      int
	PacketsPerSec float64
	Seed          uint64
	// Trace attaches a flight recorder to the run's NIC; nil runs
	// untraced (the hot-path hooks are nil-safe no-ops).
	Trace *obs.Recorder
}

// RunConstant executes the run to completion.
func RunConstant(cfg ConstantRun) (Result, error) {
	return Host{
		Spec: cfg.Spec, Queues: 1, X: cfg.X, Trace: cfg.Trace,
		Source: constantRate(cfg.Packets, cfg.FrameLen, cfg.PacketsPerSec, 1, cfg.Seed),
	}.Run()
}

// constantRate builds the constant-rate traffic of ConstantRun and
// ChaosRun: packets frames of frameLen bytes (default 60) spread over
// queues, at pps packets per second (default the 10 GbE wire rate).
func constantRate(packets uint64, frameLen int, pps float64, queues int, seed uint64) trace.Source {
	if frameLen == 0 {
		frameLen = 60
	}
	var rate float64
	if pps > 0 {
		rate = pps * float64(frameLen+24) * 8
	}
	return trace.NewConstantRate(trace.ConstantRateConfig{
		Packets:     packets,
		FrameLen:    frameLen,
		LineRateBps: rate,
		Queues:      queues,
		Seed:        seed,
	})
}

// BorderRun replays the border-router workload into an n-queue NIC under
// the given engine with an x-loaded pkt_handler per queue — the
// Table 1 / Figures 11-13 setup.
type BorderRun struct {
	Spec   EngineSpec
	Queues int
	X      int
	// Scale compresses the trace duration (Scale 1.0 = the paper's 32 s)
	// while keeping the paper's packet rates, preserving the overload
	// dynamics at any scale.
	Scale float64
	Seed  uint64
	// Forward processes packets through a second NIC (Figure 13).
	Forward bool
	// Seconds overrides the duration directly.
	Seconds float64
	// Filter overrides the pkt_handler BPF filter (default:
	// "131.225.2 and udp", the paper's).
	Filter string
	// Trace attaches a flight recorder to the receive NIC.
	Trace *obs.Recorder
}

// RunBorder executes the run to completion. It also returns the per-queue
// offered packet counts (needed for Table 1's per-queue rates).
func RunBorder(cfg BorderRun) (Result, []uint64, error) {
	if cfg.Queues == 0 {
		cfg.Queues = 6
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	dur := vtime.Time(32 * cfg.Scale * float64(vtime.Second))
	if cfg.Seconds > 0 {
		dur = vtime.Time(cfg.Seconds * float64(vtime.Second))
	}
	res, err := Host{
		Spec: cfg.Spec, Queues: cfg.Queues, X: cfg.X, Filter: cfg.Filter,
		Forward: cfg.Forward, Trace: cfg.Trace,
		Source: trace.NewBorder(trace.BorderConfig{Queues: cfg.Queues, Duration: dur, Seed: cfg.Seed}),
	}.Run()
	if err != nil {
		return Result{}, nil, err
	}
	// Per-queue offered load, for Table 1's per-queue rates: every frame
	// the NIC steered to a ring was either received or dropped there.
	offered := make([]uint64, cfg.Queues)
	for q, rx := range res.NIC.Stats().Rx {
		offered[q] = rx.Received + rx.Drops()
	}
	return res, offered, nil
}

// ScalabilityRun is the Figure 14 setup: two NICs on one saturable bus,
// each receiving wire-rate traffic on q queues, each queue's handler
// forwarding out the other NIC.
type ScalabilityRun struct {
	Spec         EngineSpec
	QueuesPerNIC int
	FrameLen     int // 60 ("64-byte") or 96 ("100-byte")
	Packets      uint64
	Seed         uint64
	// Metrics, when non-nil, receives both NICs' series (disambiguated
	// by the nic label). Nil keeps the run unobserved.
	Metrics *metrics.Registry
}

// RunScalability executes the two-NIC forwarding run and returns the
// end-to-end drop rate.
func RunScalability(cfg ScalabilityRun) (float64, error) {
	sched := vtime.NewScheduler()
	costs := engines.DefaultCosts()
	// The shared host bus: sized so that 2 x 10 GbE of 64-byte line-rate
	// traffic (~29.8 Mp/s) exceeds it while 2 x 100-byte line rate
	// (~20.8 Mp/s) fits, reflecting PCIe's per-TLP overhead.
	shared := bus.New(bus.Config{
		// 4.2 GB/s with 90 B per-TLP overhead: 2 x 64-byte line rate
		// (29.8 Mp/s, 4.5+ GB/s with overhead) saturates it; 2 x 100-byte
		// line rate (20.8 Mp/s, 3.9 GB/s) fits — the Figure 14 regime.
		BytesPerSec:         4.2e9,
		BurstBytes:          256 * 1024,
		PerTransferOverhead: 90,
	})
	if cfg.Metrics != nil {
		shared.Register(cfg.Metrics)
	}
	mkNIC := func(id int) *nic.NIC {
		return nic.New(sched, nic.Config{
			ID: id, RxQueues: cfg.QueuesPerNIC, RingSize: 1024,
			TxQueues: cfg.QueuesPerNIC, TxRingSize: 1024,
			Promiscuous: true, Bus: shared, Metrics: cfg.Metrics,
		})
	}
	n1, n2 := mkNIC(0), mkNIC(1)

	h1 := app.NewPktHandler(0, costs, cfg.QueuesPerNIC)
	h1.ForwardTx = func(q int) *nic.TxRing { return n2.Tx(q) }
	h2 := app.NewPktHandler(0, costs, cfg.QueuesPerNIC)
	h2.ForwardTx = func(q int) *nic.TxRing { return n1.Tx(q) }

	if _, err := cfg.Spec.Build(sched, n1, costs, h1); err != nil {
		return 0, err
	}
	if _, err := cfg.Spec.Build(sched, n2, costs, h2); err != nil {
		return 0, err
	}

	mkSrc := func(seed uint64) *trace.ConstantRateSource {
		return trace.NewConstantRate(trace.ConstantRateConfig{
			Packets:  cfg.Packets,
			FrameLen: cfg.FrameLen,
			Queues:   cfg.QueuesPerNIC,
			Seed:     seed,
		})
	}
	st1 := trace.Drive(sched, n1, mkSrc(cfg.Seed), nil)
	st2 := trace.Drive(sched, n2, mkSrc(cfg.Seed+1000), nil)
	sched.Run()

	var forwarded uint64
	for q := 0; q < cfg.QueuesPerNIC; q++ {
		forwarded += n1.Tx(q).Stats().Sent + n2.Tx(q).Stats().Sent
	}
	sent := st1.Sent + st2.Sent
	if sent == 0 {
		return 0, fmt.Errorf("bench: no packets sent")
	}
	return 1 - float64(forwarded)/float64(sent), nil
}
