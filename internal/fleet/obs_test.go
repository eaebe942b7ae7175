package fleet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// stormConfig mirrors the bench fleet_chaos_host_kill storm: one
// permanent kill (so its flows re-steer and stay moved), one
// crash-with-restart, and an aggregation-link flap on a survivor, at
// full offered rate. The timings match the bench scenario so sampled
// flows demonstrably cross the re-steer.
func stormConfig() Config {
	cfg := testConfig()
	cfg.Hosts = 6
	cfg.Packets = 30_000
	cfg.CollectFeed = false
	cfg.Faults = faults.Schedule{
		{Kind: faults.HostCrash, NIC: 1, At: 5 * vtime.Millisecond},
		{Kind: faults.HostCrash, NIC: 4, At: 12 * vtime.Millisecond, Dur: 8 * vtime.Millisecond},
		{Kind: faults.AggLinkDown, NIC: 2, At: 8 * vtime.Millisecond, Dur: 600 * vtime.Microsecond},
	}
	return cfg
}

// TestTracedObservabilityIsPureObserver runs the storm untraced and
// traced and requires the same report digest: journeys, health lanes,
// and the forensics ledger must never perturb the simulation.
func TestTracedObservabilityIsPureObserver(t *testing.T) {
	cfg := stormConfig()
	plain, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("untraced Run: %v", err)
	}
	cfg.Traced = true
	traced, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("traced Run: %v", err)
	}
	if d1, d2 := plain.Report.Digest(), traced.Report.Digest(); d1 != d2 {
		t.Fatalf("tracing changed the run: untraced digest %s, traced %s", d1, d2)
	}
	if len(traced.Record.Journeys) == 0 {
		t.Fatal("traced run recorded no journeys")
	}
	if len(traced.Record.Health) != cfg.Hosts+2 { // hosts + agg + summed fleet lane
		t.Fatalf("health lanes = %d, want %d", len(traced.Record.Health), cfg.Hosts+2)
	}
}

// TestTracedExportsDeterministic renders every observability artifact —
// journey dump, Chrome trace, health series, fleet ledger — from two
// runs of the same storm and requires byte identity.
func TestTracedExportsDeterministic(t *testing.T) {
	cfg := stormConfig()
	cfg.Traced = true
	r1, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	r2, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if d1, d2 := r1.Report.Digest(), r2.Report.Digest(); d1 != d2 {
		t.Fatalf("digest differs between reruns: %s vs %s", d1, d2)
	}
	render := func(name string, f func(*bytes.Buffer, Result) error) {
		var b1, b2 bytes.Buffer
		if err := f(&b1, r1); err != nil {
			t.Fatalf("%s run 1: %v", name, err)
		}
		if err := f(&b2, r2); err != nil {
			t.Fatalf("%s run 2: %v", name, err)
		}
		if b1.String() != b2.String() {
			t.Errorf("%s differs between reruns", name)
		}
	}
	render("journey dump", func(b *bytes.Buffer, r Result) error { return r.Record.WriteJourneys(b) })
	render("chrome export", func(b *bytes.Buffer, r Result) error { return r.Record.WriteChrome(b) })
	render("health series", func(b *bytes.Buffer, r Result) error { return obs.WriteHealth(b, r.Record.Health) })
	render("fleet ledger", func(b *bytes.Buffer, r Result) error { return r.Record.WriteFleetLedger(b, 0) })
}

// TestForensicsLedgerPartitionsTheBooks re-derives the conservation
// equation from the merged record alone — independently of the check
// fleet.Run performs internally — so a regression in either side is
// caught by the other.
func TestForensicsLedgerPartitionsTheBooks(t *testing.T) {
	cfg := stormConfig()
	cfg.Traced = true
	res, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := res.Report
	led := res.Record.FleetLedger(0)
	if len(led) == 0 {
		t.Fatal("storm produced an empty forensics ledger")
	}
	for _, hr := range rep.PerHost {
		if got := obs.SumCause(led, obs.DropHostLostCrash, hr.Host); got != hr.HostLost {
			t.Errorf("host %d: ledger host_lost_crash = %d, books %d", hr.Host, got, hr.HostLost)
		}
		if got := obs.SumCause(led, obs.DropInFlightHeadDrop, hr.Host); got != hr.InFlightDropped {
			t.Errorf("host %d: ledger in_flight_link_headdrop = %d, books %d", hr.Host, got, hr.InFlightDropped)
		}
		if got := obs.SumCause(led, obs.DropStalenessReject, hr.Host); got != hr.StaleRejected {
			t.Errorf("host %d: ledger staleness_reject = %d, books %d", hr.Host, got, hr.StaleRejected)
		}
		if got := obs.SumCause(led, obs.DropHostBrownoutShed, hr.Host); got != hr.CaptureDropped {
			t.Errorf("host %d: ledger host_lost_brownout_shed = %d, books %d", hr.Host, got, hr.CaptureDropped)
		}
		if got := obs.SumCause(led, obs.DropLink, hr.Host); got != hr.WireDropped {
			t.Errorf("host %d: ledger link_down = %d, books %d", hr.Host, got, hr.WireDropped)
		}
	}
	lost := obs.SumCause(led, obs.DropHostLostCrash, -1) +
		obs.SumCause(led, obs.DropInFlightHeadDrop, -1) +
		obs.SumCause(led, obs.DropStalenessReject, -1)
	if want := rep.FleetReceived - rep.Aggregated; lost != want {
		t.Fatalf("fleet causes sum to %d, FleetReceived-Aggregated = %d", lost, want)
	}
}

// TestJourneysCrossReSteer requires the storm's journey dump to stitch
// at least one flow across a re-steer: the same flow captured on two
// different hosts, before and after the control plane moved it.
func TestJourneysCrossReSteer(t *testing.T) {
	cfg := stormConfig()
	cfg.Traced = true
	res, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.ReSteers == 0 {
		t.Fatal("storm triggered no re-steers; the cross-host case is untested")
	}
	moved := 0
	for _, fh := range res.Record.FlowJourneys() {
		if len(fh.Hosts) > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no journey flow crossed a re-steer")
	}
	var dump bytes.Buffer
	if err := res.Record.WriteJourneys(&dump); err != nil {
		t.Fatalf("WriteJourneys: %v", err)
	}
	if !strings.Contains(dump.String(), "-- flows crossing a re-steer --") {
		t.Fatal("journey dump lacks the re-steer section")
	}
	// Every stitched journey must stamp stages in nondecreasing time and
	// end either merged or with a recorded fleet cause.
	for _, j := range res.Record.Journeys {
		last := j.Stamps[0].At
		for _, s := range j.Stamps {
			if s.At < last {
				t.Fatalf("journey host %d seq %d: stamps out of order", j.Host, j.Seq)
			}
			last = s.At
		}
	}
}

// TestHealthSeriesCoverTheRun checks the sampled time-series: every
// interval delta is in range, the summed fleet lane equals the per-host
// lanes, and received counters total the books.
func TestHealthSeriesCoverTheRun(t *testing.T) {
	cfg := stormConfig()
	cfg.Traced = true
	res, err := Run("storm", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	perLane := map[string]int64{}
	for _, lane := range res.Record.Health {
		if lane.IntervalNs != cfg.withDefaults().HealthInterval {
			t.Errorf("lane %s interval %d, want %d", lane.Lane, lane.IntervalNs, cfg.withDefaults().HealthInterval)
		}
		for _, d := range lane.Deltas {
			if d.EndNs > res.Report.EndNs+lane.IntervalNs {
				t.Errorf("lane %s: delta ends at %d, past run end %d", lane.Lane, d.EndNs, res.Report.EndNs)
			}
			perLane[lane.Lane] += d.Value("received")
		}
	}
	var hostsSum int64
	for lane, v := range perLane {
		if strings.HasPrefix(lane, "host") {
			hostsSum += v
		}
	}
	if hostsSum != int64(res.Report.FleetReceived) {
		t.Errorf("host lanes sum received=%d, books say %d", hostsSum, res.Report.FleetReceived)
	}
	if perLane["fleet"] != hostsSum {
		t.Errorf("fleet lane received=%d, host lanes sum %d", perLane["fleet"], hostsSum)
	}
}
