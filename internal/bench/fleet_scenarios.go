package bench

import (
	"fmt"
	"io"

	"repro/internal/engines"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// FleetDeliveryFloor is the resilience bar the chaos scenarios gate:
// even under the two-host-kill storm the fleet must aggregate at least
// this fraction of the offered stream. cmd/ci-gate re-checks the same
// floor from the outside, off the flattened RunReport.
const FleetDeliveryFloor = 0.95

// FleetRunReport executes a fleet scenario and flattens its Report into
// the bench RunReport shape cmd/ci-gate consumes: hosts map onto the
// per-queue axis (Received/CaptureDrops/DeliveryDrops/Delivered), and
// the fleet + per-host-bus counters ride in the metrics snapshot, so
// the digest covers the whole aggregation ledger.
func FleetRunReport(name string, cfg fleet.Config) (RunReport, error) {
	rep, _, err := fleetRunReport(name, cfg)
	return rep, err
}

// fleetRunReport is FleetRunReport plus the raw fleet Result, for the
// traced-record path (journey dumps, dashboards, Chrome export).
func fleetRunReport(name string, cfg fleet.Config) (RunReport, fleet.Result, error) {
	res, err := fleet.Run(name, cfg)
	if err != nil {
		return RunReport{}, fleet.Result{}, err
	}
	r := res.Report
	rep := RunReport{
		Scenario: name,
		Engine:   "fleet",
		Sent:     r.FleetSent,
		DropRate: 1 - r.Delivery,
		EndNs:    r.EndNs,
		Metrics:  r.Metrics,
	}
	for _, h := range r.PerHost {
		q := engines.QueueStats{
			Received:      h.Received,
			CaptureDrops:  h.WireDropped + h.CaptureDropped,
			DeliveryDrops: h.HostLost + h.InFlightDropped + h.StaleRejected,
			Delivered:     h.Aggregated,
		}
		rep.PerQueue = append(rep.PerQueue, q)
		rep.Totals.Received += q.Received
		rep.Totals.CaptureDrops += q.CaptureDrops
		rep.Totals.DeliveryDrops += q.DeliveryDrops
		rep.Totals.Delivered += q.Delivered
	}
	// The fleet books must survive the flattening: the RunReport states
	// the same conservation equation ci-gate re-checks from the outside.
	if rep.Totals.Delivered != r.Aggregated ||
		rep.Totals.Received != rep.Totals.Delivered+rep.Totals.DeliveryDrops {
		return RunReport{}, fleet.Result{}, fmt.Errorf("bench: %s: fleet books lost in RunReport flattening", name)
	}
	return rep, res, nil
}

// fleetScenario wires one fleet config into a Scenario. The
// fleet package manages its own recorders (one per host, merged), so
// RunTraced flips Config.Traced rather than threading the external
// recorder through; the recorder argument stays a pure observer either
// way and the report must not change — exactly what ci-gate asserts.
func fleetScenario(name, about string, cfg fleet.Config, minDelivery float64) Scenario {
	run := func(traced bool) (RunReport, fleet.Result, error) {
		c := cfg
		c.Traced = traced
		rep, res, err := fleetRunReport(name, c)
		if err != nil {
			return RunReport{}, fleet.Result{}, err
		}
		if sent := rep.Sent; sent > 0 {
			if got := float64(rep.Totals.Delivered) / float64(sent); got < minDelivery {
				return RunReport{}, fleet.Result{}, fmt.Errorf(
					"bench: %s: fleet delivery %.4f below floor %.2f", name, got, minDelivery)
			}
		}
		if v := rep.Metrics.CounterTotal("wirecap_fleet_late_merges_total"); v != 0 {
			return RunReport{}, fleet.Result{}, fmt.Errorf("bench: %s: %d late merges (feed order violated)", name, v)
		}
		return rep, res, nil
	}
	return Scenario{Name: name, About: about,
		Run: func() (RunReport, error) {
			rep, _, err := run(false)
			return rep, err
		},
		RunTraced: func(*obs.Recorder) (RunReport, error) {
			rep, _, err := run(true)
			return rep, err
		},
		TracedRecord: func() (RunReport, obs.Record, error) {
			rep, res, err := run(true)
			return rep, res.Record, err
		},
	}
}

// FleetStormConfig is the headline chaos storm (fleet_chaos_host_kill):
// 6 hosts, 30k frames, one permanent host kill, one crash-with-restart,
// and an aggregation-link flap on a survivor — all while the wire keeps
// offering at full rate. cmd/ci-gate's fleet allocation budget runs it
// too.
func FleetStormConfig() fleet.Config {
	return fleet.Config{
		Hosts:   6,
		Packets: 30_000,
		Flows:   256,
		Seed:    7,
		Faults: faults.Schedule{
			{Kind: faults.HostCrash, NIC: 1, At: 5 * vtime.Millisecond},
			{Kind: faults.HostCrash, NIC: 4, At: 12 * vtime.Millisecond, Dur: 8 * vtime.Millisecond},
			{Kind: faults.AggLinkDown, NIC: 2, At: 8 * vtime.Millisecond, Dur: 600 * vtime.Microsecond},
		},
	}
}

// FleetScenarios is the fleet-resilience slice of the regression gate:
// a steady-state control and three chaos runs, each re-checked for
// exact loss conservation (fleet.Run errors otherwise), zero late
// merges, and the delivery floor.
func FleetScenarios() []Scenario {
	storm := FleetStormConfig()
	steady := fleet.Config{
		Hosts:   4,
		Packets: 15_000,
		Flows:   256,
		Seed:    7,
	}
	flap := fleet.Config{
		Hosts:   4,
		Packets: 15_000,
		Flows:   256,
		Seed:    7,
		Faults: faults.Schedule{
			{Kind: faults.AggLinkDown, NIC: 0, At: 2 * vtime.Millisecond, Dur: 500 * vtime.Microsecond},
			{Kind: faults.AggLinkDown, NIC: 3, At: 4 * vtime.Millisecond, Dur: 500 * vtime.Microsecond},
			{Kind: faults.AggLinkDown, NIC: 0, At: 6 * vtime.Millisecond, Dur: 500 * vtime.Microsecond},
		},
	}
	brown := fleet.Config{
		Hosts:   4,
		Packets: 15_000,
		Flows:   256,
		Seed:    7,
		Faults: faults.Schedule{
			{Kind: faults.HostBrownout, NIC: 2, At: 3 * vtime.Millisecond,
				Dur: 6 * vtime.Millisecond, Severity: 24},
		},
	}
	return []Scenario{
		fleetScenario("fleet_chaos_steady",
			"fleet control: 4 hosts, no faults — delivery must be exactly 1",
			steady, 1.0),
		fleetScenario("fleet_chaos_host_kill",
			"two-host-kill storm: permanent kill + crash/restart + link flap, delivery >= 95%",
			storm, FleetDeliveryFloor),
		fleetScenario("fleet_chaos_link_flap",
			"aggregation-link flaps: retry/backoff absorbs partitions without losing capture",
			flap, FleetDeliveryFloor),
		fleetScenario("fleet_chaos_brownout",
			"slow-host brownout: capture-side shedding under a 24x cost multiplier",
			brown, FleetDeliveryFloor),
	}
}

// Fleet renders the fleet-resilience report: the chaos scenario summary
// (the same runs the gate replays) and the host-kill degradation table —
// a 6-host fleet with 0..3 staggered permanent kills, showing how
// delivery degrades as capacity is removed while the books stay exact.
func Fleet(opt Options, w io.Writer) error {
	sc := Table{
		ID:    "fleet",
		Title: "Fleet chaos scenarios: loss-accounted aggregation under host-level faults",
		Columns: []string{"scenario", "hosts", "sent", "delivered", "delivery",
			"capture_drops", "delivery_drops", "quarantines", "readmissions",
			"steer_moves", "retries", "digest"},
	}
	for _, s := range FleetScenarios() {
		rep, err := s.Report()
		if err != nil {
			return err
		}
		t := rep.Totals
		m := rep.Metrics
		sc.Rows = append(sc.Rows, []string{
			rep.Scenario, fmt.Sprint(len(rep.PerQueue)),
			fmt.Sprint(rep.Sent), fmt.Sprint(t.Delivered),
			fmt.Sprintf("%.4f", ratio(t.Delivered, rep.Sent)),
			fmt.Sprint(t.CaptureDrops), fmt.Sprint(t.DeliveryDrops),
			fmt.Sprint(m.CounterTotal("wirecap_fleet_quarantines_total")),
			fmt.Sprint(m.CounterTotal("wirecap_fleet_readmissions_total")),
			fmt.Sprint(m.CounterTotal("wirecap_fleet_steer_moves_total")),
			fmt.Sprint(m.CounterTotal("wirecap_fleet_retries_total")),
			rep.Digest(),
		})
	}
	if err := opt.render(sc, w); err != nil {
		return err
	}

	deg := Table{
		ID:    "fleet-degradation",
		Title: "Host-kill degradation: 6-host fleet, k staggered permanent kills, same offered stream",
		Columns: []string{"killed", "sent", "delivered", "delivery",
			"wire_dropped", "host_lost", "inflight_dropped", "resteers", "steer_moves"},
	}
	for killed := 0; killed <= 3; killed++ {
		var sch faults.Schedule
		for k := 0; k < killed; k++ {
			sch = append(sch, faults.Event{
				Kind: faults.HostCrash, NIC: 1 + 2*k,
				At: vtime.Time(4+6*k) * vtime.Millisecond,
			})
		}
		res, err := fleet.Run(fmt.Sprintf("fleet_kill_%d", killed), fleet.Config{
			Hosts: 6, Packets: 30_000, Flows: 256, Seed: 7, Faults: sch,
		})
		if err != nil {
			return err
		}
		r := res.Report
		deg.Rows = append(deg.Rows, []string{
			fmt.Sprint(killed), fmt.Sprint(r.FleetSent), fmt.Sprint(r.Aggregated),
			fmt.Sprintf("%.4f", r.Delivery),
			fmt.Sprint(r.WireDropped), fmt.Sprint(r.HostLost),
			fmt.Sprint(r.InFlightDropped), fmt.Sprint(r.ReSteers), fmt.Sprint(r.SteerMoves),
		})
	}
	return opt.render(deg, w)
}
