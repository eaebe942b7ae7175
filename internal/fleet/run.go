package fleet

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/vtime"
	"repro/internal/vtime/domain"
)

// Result is one fleet run's output: the deterministic Report, plus the
// in-memory merged feed (Config.CollectFeed) and the merged flight
// record (Config.Traced) for tests and trace export.
type Result struct {
	Report Report
	Feed   []Packet
	Record obs.Record
}

// Run executes one fleet scenario to event-queue exhaustion and
// verifies its books. It returns an error for an invalid config or
// fault schedule — and, crucially, if the run violated either fleet
// invariant: unique flow ownership (every offered frame charged to
// exactly one host) or loss conservation
// (FleetReceived == Aggregated + HostLost + InFlightDropped).
func Run(name string, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Faults.Validate(); err != nil {
		return Result{}, fmt.Errorf("fleet: %s: %w", name, err)
	}

	sim := domain.New(domain.Config{})
	d := sim.Domain(0)
	sched := d.Scheduler()

	// Construction happens in a fixed order — aggregation port, then per
	// host (control port, link tx), then the control tx — which fixes
	// every port and tx id and so the canonical delivery order.
	newRec := func() *obs.Recorder {
		if !cfg.Traced {
			return nil // every Recorder method is nil-safe
		}
		return obs.New(obs.Config{FlowHash: func(f packet.FlowKey) uint32 {
			return nic.RSSHash(SteeringKey[:], f)
		}})
	}

	steer := NewSteering(cfg.Hosts)
	pool := &batchPool{size: cfg.BatchPackets}
	aggRec := newRec()
	agg := newAggregator(&cfg, sched, steer, aggRec, pool)
	if cfg.Traced {
		// Each actor samples a private registry so the health series is a
		// pure function of that actor's own event history; the fleet lane
		// is summed from them after the run.
		reg := metrics.NewRegistry()
		agg.registerHealth(reg)
		agg.health = obs.NewHealthSampler("agg", reg, cfg.HealthInterval, cfg.HealthMaxIntervals)
	}
	aggPort := sim.NewPort(d, cfg.LinkLatency, agg.receive)

	flows := newFlowPool(cfg.Seed, cfg.Flows)
	interval := vtime.PerSecond(cfg.PacketsPerSec)

	hosts := make([]*host, cfg.Hosts)
	hostRecs := make([]*obs.Recorder, cfg.Hosts)
	ctl := make([]*domain.Port, cfg.Hosts)
	for h := 0; h < cfg.Hosts; h++ {
		rec := newRec()
		hostRecs[h] = rec

		hs := newHost(h, &cfg, sched, steer.Clone(), rec, pool)
		if cfg.Traced {
			hreg := metrics.NewRegistry()
			hs.registerHealth(hreg)
			hs.health = obs.NewHealthSampler(hs.healthLane(), hreg, cfg.HealthInterval, cfg.HealthMaxIntervals)
		}
		ctl[h] = sim.NewPort(d, cfg.CtrlLatency, hs.control)
		hs.tx = sim.NewTx(d)
		hs.agg = aggPort

		inj := faults.NewInjector(sched, vtime.SplitSeed(cfg.FaultSeed, uint64(h)))
		inj.OnTransition(hs.onFault)
		inj.SetTrace(rec)
		var sub faults.Schedule
		for _, ev := range cfg.Faults {
			if ev.NIC == h {
				sub = append(sub, ev)
			}
		}
		if err := inj.Install(sub); err != nil {
			return Result{}, fmt.Errorf("fleet: %s: host %d: %w", name, h, err)
		}
		hs.inj = inj
		hosts[h] = hs
	}
	newGenerator(sched, cfg.Seed, flows, steer, cfg.Packets, interval, fanOut(hosts))
	agg.tx = sim.NewTx(d)
	agg.ctl = ctl

	sim.Run()
	end := sim.Now()
	agg.finish(end)

	reg := metrics.NewRegistry()
	registerFleet(reg, agg, hosts)

	rep := Report{
		Scenario:            name,
		Hosts:               cfg.Hosts,
		Aggregated:          agg.aggregated,
		LateMerges:          agg.lateMerges,
		StaleRejected:       agg.staleRejected,
		InFlightDropped:     agg.staleRejected,
		Quarantines:         agg.quarantines,
		Readmissions:        agg.readmissions,
		ReSteers:            agg.resteers,
		SteerMoves:          agg.steerMoves,
		AnalyticsAggregated: agg.anlAgg,
		EndNs:               end,
		Ledger:              agg.ledger.sum(),
	}
	for _, hs := range hosts {
		hr := hs.report()
		hr.Aggregated = agg.aggPerHost[hs.id]
		hr.StaleRejected = agg.stalePerHost[hs.id]
		rep.PerHost = append(rep.PerHost, hr)
		rep.FleetSent += hr.Offered
		rep.WireDropped += hr.WireDropped
		rep.CaptureDropped += hr.CaptureDropped
		rep.FleetReceived += hr.Received
		rep.HostLost += hr.HostLost
		rep.InFlightDropped += hr.InFlightDropped
		rep.AnalyticsShed += hr.AnalyticsShed
		rep.Batches += hr.Batches
	}
	if rep.FleetSent > 0 {
		rep.Delivery = float64(rep.Aggregated) / float64(rep.FleetSent)
	}
	rep.Metrics = reg.Snapshot(end)

	if rep.FleetSent != cfg.Packets {
		return Result{}, fmt.Errorf(
			"fleet: %s: ownership violated: %d frames offered, %d charged (steering replicas diverged)",
			name, cfg.Packets, rep.FleetSent)
	}
	if !rep.Conserved() {
		return Result{}, fmt.Errorf(
			"fleet: %s: conservation violated: received %d != aggregated %d + host-lost %d + inflight-dropped %d",
			name, rep.FleetReceived, rep.Aggregated, rep.HostLost, rep.InFlightDropped)
	}
	for _, hr := range rep.PerHost {
		if hr.Received != hr.Aggregated+hr.HostLost+hr.InFlightDropped+hr.StaleRejected {
			return Result{}, fmt.Errorf(
				"fleet: %s: host %d books unbalanced: received %d != aggregated %d + host-lost %d + inflight-dropped %d + stale %d",
				name, hr.Host, hr.Received, hr.Aggregated, hr.HostLost, hr.InFlightDropped, hr.StaleRejected)
		}
	}

	res := Result{Report: rep, Feed: agg.feed}
	if cfg.Traced {
		// Tags are logical lanes — aggregator 0, host h as h+1 — so the
		// merged record (and everything rendered from it: journey dumps,
		// Chrome exports, the forensics ledger) keeps every actor's
		// records attributable.
		recs := make([]obs.Record, 0, cfg.Hosts+1)
		ar := aggRec.Record(name, end)
		ar.Tag(0)
		recs = append(recs, ar)
		for h, rec := range hostRecs {
			r := rec.Record(name, end)
			r.Tag(h + 1)
			recs = append(recs, r)
		}
		rec := obs.MergeRecords(name, end, recs)
		rec.StitchJourneys()

		agg.health.Finish(end)
		lanes := []obs.HealthSeries{agg.health.Series()}
		for _, hs := range hosts {
			hs.health.Finish(end)
			lanes = append(lanes, hs.health.Series())
		}
		lanes = append(lanes, obs.MergeHealth("fleet", lanes))
		rec.Health = lanes
		res.Record = rec

		// The forensics ledger must be an exact partition: per host, each
		// fleet cause re-derives that host's book entry, and the three
		// aggregation-plane loss causes sum to FleetReceived − Aggregated.
		led := rec.FleetLedger(cfg.HealthInterval)
		for _, hr := range rep.PerHost {
			checks := []struct {
				cause obs.DropCause
				want  uint64
				book  string
			}{
				{obs.DropHostLostCrash, hr.HostLost, "host_lost"},
				{obs.DropInFlightHeadDrop, hr.InFlightDropped, "inflight_dropped"},
				{obs.DropStalenessReject, hr.StaleRejected, "stale_rejected"},
				{obs.DropHostBrownoutShed, hr.CaptureDropped, "capture_dropped"},
				{obs.DropLink, hr.WireDropped, "wire_dropped"},
			}
			for _, c := range checks {
				if got := obs.SumCause(led, c.cause, hr.Host); got != c.want {
					return Result{}, fmt.Errorf(
						"fleet: %s: forensics ledger not a partition: host %d cause %s sums to %d, books say %s=%d",
						name, hr.Host, c.cause, got, c.book, c.want)
				}
			}
		}
		lost := obs.SumCause(led, obs.DropHostLostCrash, -1) +
			obs.SumCause(led, obs.DropInFlightHeadDrop, -1) +
			obs.SumCause(led, obs.DropStalenessReject, -1)
		if lost != rep.FleetReceived-rep.Aggregated {
			return Result{}, fmt.Errorf(
				"fleet: %s: forensics ledger not a partition: fleet causes sum to %d, FleetReceived-Aggregated=%d",
				name, lost, rep.FleetReceived-rep.Aggregated)
		}
	}
	return res, nil
}

// registerFleet exposes the fleet books through the metrics registry:
// fleet-level counters unlabeled, per-host counters labeled {host=N},
// and each host's aggregation-link bus as wirecap_bus_* {link=hostN}.
func registerFleet(reg *metrics.Registry, agg *aggregator, hosts []*host) {
	reg.CounterFunc("wirecap_fleet_aggregated_total", func() uint64 { return agg.aggregated })
	reg.CounterFunc("wirecap_fleet_late_merges_total", func() uint64 { return agg.lateMerges })
	reg.CounterFunc("wirecap_fleet_stale_rejected_total", func() uint64 { return agg.staleRejected })
	reg.CounterFunc("wirecap_fleet_quarantines_total", func() uint64 { return agg.quarantines })
	reg.CounterFunc("wirecap_fleet_readmissions_total", func() uint64 { return agg.readmissions })
	reg.CounterFunc("wirecap_fleet_resteers_total", func() uint64 { return agg.resteers })
	reg.CounterFunc("wirecap_fleet_steer_moves_total", func() uint64 { return agg.steerMoves })
	reg.CounterFunc("wirecap_fleet_analytics_aggregated_total", func() uint64 { return agg.anlAgg })
	for _, hs := range hosts {
		hs := hs
		l := metrics.L("host", fmt.Sprintf("%d", hs.id))
		reg.CounterFunc("wirecap_fleet_received_total", func() uint64 { return hs.received }, l)
		reg.CounterFunc("wirecap_fleet_wire_dropped_total", func() uint64 { return hs.wireDropped }, l)
		reg.CounterFunc("wirecap_fleet_capture_dropped_total", func() uint64 { return hs.captureDropped }, l)
		reg.CounterFunc("wirecap_fleet_host_lost_total", func() uint64 { return hs.hostLost }, l)
		reg.CounterFunc("wirecap_fleet_inflight_dropped_total", func() uint64 { return hs.inFlight }, l)
		reg.CounterFunc("wirecap_fleet_retries_total", func() uint64 { return hs.retries }, l)
		reg.CounterFunc("wirecap_fleet_analytics_shed_total", func() uint64 { return hs.anlShed }, l)
		hs.lbus.Register(reg, metrics.L("link", fmt.Sprintf("host%d", hs.id)))
	}
}

// fanOut is the one tapped wire's sink: every frame reaches every
// host's replica, in host order, and only the replica's owner captures
// it.
func fanOut(hosts []*host) func(frame) {
	return func(fr frame) {
		for _, hs := range hosts {
			hs.offer(fr)
		}
	}
}
