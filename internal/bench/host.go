package bench

import (
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Host is one simulated capture box, the shape of every single-host
// experiment in the paper: a receive NIC, a capture engine and a
// pkt_handler per queue, fed by a traffic source. Every single-host run
// is a Host; a zero field keeps the plain setup.
type Host struct {
	Spec   EngineSpec
	Queues int
	X      int    // pkt_handler load
	Filter string // pkt_handler BPF filter ("" = its default)
	Source trace.Source

	Steering    nic.Steering // receive steering (nil = RSS)
	LineRateBps float64      // receive wire speed (0 = 10 GbE)
	// Forward sends processed packets out of a second NIC (Figure 13).
	Forward bool

	// Faults is a fault schedule installed on the NIC; FaultSeed seeds
	// the injector's own randomness.
	Faults    faults.Schedule
	FaultSeed uint64
	Trace     *obs.Recorder // flight recorder on the NIC and injector
	Delays    bool          // pkt_handler delay accounting (h.Clock)

	// Core adjusts the WireCAP core configuration before it is built.
	Core func(*core.Config)
	// Handler, when set, builds the consumer from the run's registry in
	// place of the pkt_handler (X, Filter, Delays and Forward then do not
	// apply, and Result.Handler is nil).
	Handler func(*metrics.Registry) engines.Handler
}

// Run builds the host and runs it until the event queue drains. The
// construction order decides event tie-breaks, and so every digest:
// scheduler and registry, fault injector, receive NIC, forwarding NIC,
// handler, engine, then the traffic source.
func (h Host) Run() (Result, error) {
	sched := vtime.NewScheduler()
	reg := metrics.NewRegistry()
	var inj *faults.Injector
	if len(h.Faults) > 0 {
		inj = faults.NewInjector(sched, h.FaultSeed)
		inj.Register(reg)
		inj.SetTrace(h.Trace)
		if err := inj.Install(h.Faults); err != nil {
			return Result{}, err
		}
	}
	n := nic.New(sched, nic.Config{
		ID: 0, RxQueues: h.Queues, RingSize: 1024, Promiscuous: true,
		LineRateBps: h.LineRateBps, Steering: h.Steering,
		Metrics: reg, Faults: inj, Trace: h.Trace,
	})
	var fwd *nic.NIC
	if h.Forward {
		fwd = nic.New(sched, nic.Config{
			ID: 1, RxQueues: 1, RingSize: 64,
			TxQueues: h.Queues, TxRingSize: 1024, Promiscuous: true,
			Metrics: reg,
		})
	}

	costs := engines.DefaultCosts()
	var ph *app.PktHandler
	var handler engines.Handler
	switch {
	case h.Handler != nil:
		handler = h.Handler(reg)
	case h.Filter != "":
		var err error
		if ph, err = app.NewPktHandlerFilter(h.X, costs, h.Queues, h.Filter); err != nil {
			return Result{}, err
		}
	default:
		ph = app.NewPktHandler(h.X, costs, h.Queues)
	}
	if ph != nil {
		if h.Delays {
			ph.Clock = sched
		}
		if fwd != nil {
			ph.ForwardTx = func(q int) *nic.TxRing { return fwd.Tx(q) }
		}
		handler = ph
	}
	eng, err := h.Spec.BuildWith(sched, n, costs, handler, h.Core)
	if err != nil {
		return Result{}, err
	}
	st := trace.Drive(sched, n, h.Source, nil)
	sched.Run()

	res := Result{
		Spec: h.Spec, Sent: st.Sent, Last: st.Last, Stats: eng.Stats(), Handler: ph,
		Metrics: reg, End: sched.Now(), Engine: eng, NIC: n,
	}
	if fwd != nil {
		for q := 0; q < h.Queues; q++ {
			res.Forwarded += fwd.Tx(q).Stats().Sent
		}
	}
	return res, nil
}
