package bench

import (
	"repro/internal/analytics"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// AnalyticsRun drives the border-router workload into an engine whose
// consumer is the streaming analytics stage (internal/analytics),
// optionally behind the engine's per-chunk batch filter and a
// deterministic fault storm. It models the headline line-rate consumer:
// batch-filter whole chunks, decode survivors zero-copy, feed sketches.
type AnalyticsRun struct {
	Spec   EngineSpec
	Queues int     // default 4
	Scale  float64 // border rate multiplier, default 1.0
	// Seconds is the trace duration (default 0.4).
	Seconds float64
	Seed    uint64
	// Filter, when non-empty, installs a chunk batch filter compiled to
	// the flattened backend (WireCAP kinds only; other engines have no
	// chunk pipeline and reject it).
	Filter string
	// Analytics sizes the stage; the zero value takes the stage defaults.
	Analytics analytics.Config

	// Faults / FaultSeed attach a deterministic fault storm, as in
	// ChaosRun. An empty schedule runs fault-free.
	Faults    faults.Schedule
	FaultSeed uint64

	// Trace attaches a flight recorder to the NIC and the stage.
	Trace *obs.Recorder
}

// analyticsHandler adapts the analytics stage onto engines.Handler: one
// decode plus one stage update per delivered packet, on per-queue
// scratch so the steady state allocates nothing.
type analyticsHandler struct {
	stage *analytics.Stage
	cost  vtime.Time
	dec   []packet.Decoded
}

// Cost implements engines.Handler: the declared per-packet budget of
// decode plus sketch updates.
func (h *analyticsHandler) Cost(int, []byte) vtime.Time { return h.cost }

// Handle implements engines.Handler.
//
//wirecap:hotpath
func (h *analyticsHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	d := &h.dec[q]
	if err := packet.Decode(data, d); err != nil {
		h.stage.NoteUndecodable()
		done()
		return
	}
	h.stage.Update(q, d, ts)
	done()
}

// RunAnalytics executes the run to completion and returns the result
// with its Analytics report attached.
func RunAnalytics(cfg AnalyticsRun) (Result, error) {
	if cfg.Queues == 0 {
		cfg.Queues = 4
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 0.4
	}
	sched := vtime.NewScheduler()
	reg := metrics.NewRegistry()
	var inj *faults.Injector
	if len(cfg.Faults) > 0 {
		inj = faults.NewInjector(sched, cfg.FaultSeed)
		inj.Register(reg)
		inj.SetTrace(cfg.Trace)
		if err := inj.Install(cfg.Faults); err != nil {
			return Result{}, err
		}
	}
	n := nic.New(sched, nic.Config{
		ID: 0, RxQueues: cfg.Queues, RingSize: 1024, Promiscuous: true,
		Metrics: reg, Faults: inj, Trace: cfg.Trace,
	})
	costs := engines.DefaultCosts()
	stage := analytics.New(cfg.Analytics, reg, cfg.Trace)
	h := &analyticsHandler{
		stage: stage,
		cost:  costs.AppBase + analytics.DefaultUpdateCost,
		dec:   make([]packet.Decoded, cfg.Queues),
	}
	var mutate func(*core.Config)
	if cfg.Filter != "" {
		flt, err := bpf.CompileFlat(cfg.Filter, 65535)
		if err != nil {
			return Result{}, err
		}
		mutate = func(c *core.Config) { c.ChunkFilter = flt }
	}
	eng, err := cfg.Spec.BuildWith(sched, n, costs, h, mutate)
	if err != nil {
		return Result{}, err
	}
	src := trace.NewBorder(trace.BorderConfig{
		Queues:   cfg.Queues,
		Duration: vtime.Time(cfg.Seconds * float64(vtime.Second)),
		Scale:    cfg.Scale,
		Seed:     cfg.Seed,
	})
	st := trace.Drive(sched, n, src, nil)
	sched.Run()
	return Result{
		Spec: cfg.Spec, Sent: st.Sent, Stats: eng.Stats(),
		Metrics: reg, End: sched.Now(),
		Analytics: stage.Report(),
	}, nil
}

// AnalyticsScenarios is the line-rate-consumer regression suite: the
// full fast path (chunk batch filter -> zero-copy decode -> sketch
// updates) under the bursty border workload, clean and under the
// composite fault storm. Every sketch counter, heavy-hitter row, and
// superspreader estimate sits under the ci-gate digest.
func AnalyticsScenarios() []Scenario {
	mk := func(name, about string, cfg AnalyticsRun) Scenario {
		run := func(rec *obs.Recorder) (RunReport, error) {
			c := cfg
			c.Trace = rec
			res, err := RunAnalytics(c)
			if err != nil {
				return RunReport{}, err
			}
			return res.Report(name), nil
		}
		return Scenario{Name: name, About: about,
			Run:       func() (RunReport, error) { return run(nil) },
			RunTraced: run,
		}
	}
	return []Scenario{
		mk("analytics_border_wirecapa",
			"line-rate consumer: chunk batch filter + streaming analytics on the border trace",
			AnalyticsRun{
				Spec: WireCAPA(128, 64, 60), Queues: 4,
				Seconds: 0.4, Scale: 0.2, Seed: 17,
				Filter: "udp",
				Analytics: analytics.Config{
					FlowCapacity: 512, TopK: 16, Superspreaders: 16,
				},
			}),
		mk("analytics_chaos_storm",
			"streaming analytics under the composite fault storm: digests stay deterministic while drops go through ledgered causes",
			AnalyticsRun{
				Spec: WireCAPA(64, 32, 60), Queues: 4,
				Seconds: 0.3, Scale: 0.2, Seed: 19,
				Filter: "tcp",
				Analytics: analytics.Config{
					FlowCapacity: 256, TopK: 8, Superspreaders: 8,
				},
				Faults:    DegradationSchedule(),
				FaultSeed: 131,
			}),
	}
}
