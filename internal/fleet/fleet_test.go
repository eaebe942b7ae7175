package fleet

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// testConfig is a small, fast fleet sized so every test finishes in
// well under a second while still exercising batching, flushing, and
// the merge frontier.
func testConfig() Config {
	return Config{
		Hosts:       4,
		Packets:     12_000,
		Flows:       128,
		Seed:        7,
		CollectFeed: true,
	}
}

// crashSchedule is the canonical two-host-kill chaos storm used across
// the tests: one permanent kill, one crash-with-restart, and a link
// flap on a survivor.
func crashSchedule() faults.Schedule {
	return faults.Schedule{
		{Kind: faults.HostCrash, NIC: 1, At: 3 * vtime.Millisecond},
		{Kind: faults.HostCrash, NIC: 3, At: 5 * vtime.Millisecond, Dur: 3 * vtime.Millisecond},
		{Kind: faults.AggLinkDown, NIC: 2, At: 4 * vtime.Millisecond, Dur: 400 * vtime.Microsecond},
	}
}

func TestSteadyStateDeliversEverything(t *testing.T) {
	res, err := Run("steady", testConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.FleetSent != 12_000 {
		t.Fatalf("FleetSent = %d, want 12000", r.FleetSent)
	}
	if r.WireDropped != 0 || r.CaptureDropped != 0 || r.HostLost != 0 || r.InFlightDropped != 0 {
		t.Fatalf("steady state dropped packets: %+v", r)
	}
	if r.Aggregated != r.FleetSent {
		t.Fatalf("Aggregated = %d, want %d", r.Aggregated, r.FleetSent)
	}
	if r.Delivery != 1 {
		t.Fatalf("Delivery = %v, want 1", r.Delivery)
	}
	if r.LateMerges != 0 {
		t.Fatalf("LateMerges = %d, want 0", r.LateMerges)
	}
	if r.Quarantines != 0 || r.ReSteers != 0 {
		t.Fatalf("steady state ran the control plane: %+v", r)
	}
	// Every host should have captured something: the steering table
	// spreads 128 flows over 4 hosts.
	for _, h := range r.PerHost {
		if h.Received == 0 {
			t.Errorf("host %d captured nothing", h.Host)
		}
	}
}

func TestFeedGloballyOrdered(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = crashSchedule()
	res, err := Run("ordered", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Feed) == 0 {
		t.Fatal("CollectFeed produced no feed")
	}
	var last vtime.Time
	for i, p := range res.Feed {
		if p.TS < last {
			t.Fatalf("feed[%d]: TS %d < previous %d", i, p.TS, last)
		}
		last = p.TS
	}
	if res.Report.LateMerges != 0 {
		t.Fatalf("LateMerges = %d, want 0", res.Report.LateMerges)
	}
}

// TestPerFlowOrderAcrossFailover is the order-preserving-failover
// property: after a crash re-steers a dead host's flows, the merged
// feed may have per-flow gaps (lost packets) but never inversions or
// duplicates — each flow's generator sequence numbers appear strictly
// increasing.
func TestPerFlowOrderAcrossFailover(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = crashSchedule()
	res, err := Run("flow_order", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Quarantines == 0 {
		t.Fatal("schedule produced no quarantine; the property is vacuous")
	}
	lastSeq := make(map[packet.FlowKey]uint64)
	owners := make(map[packet.FlowKey]map[int]bool)
	for i, p := range res.Feed {
		if prev := lastSeq[p.Flow]; p.FlowSeq <= prev {
			t.Fatalf("feed[%d]: flow %v seq %d after %d (inversion or duplicate)",
				i, p.Flow, p.FlowSeq, prev)
		}
		lastSeq[p.Flow] = p.FlowSeq
		if owners[p.Flow] == nil {
			owners[p.Flow] = map[int]bool{}
		}
		owners[p.Flow][p.Host] = true
	}
	// The failover must actually have moved flows between hosts, or the
	// property was never stressed.
	moved := 0
	for _, hs := range owners {
		if len(hs) > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no flow was captured by more than one host; failover never engaged")
	}
}

func TestCrashQuarantineAndReadmission(t *testing.T) {
	cfg := testConfig()
	cfg.Packets = 20_000 // ~20ms: room for crash, detection, restart, readmission
	cfg.Faults = faults.Schedule{
		{Kind: faults.HostCrash, NIC: 2, At: 3 * vtime.Millisecond, Dur: 4 * vtime.Millisecond},
	}
	cfg.Traced = true
	res, err := Run("readmit", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Quarantines == 0 {
		t.Fatal("crash was never quarantined")
	}
	if r.Readmissions == 0 {
		t.Fatal("restarted host was never readmitted")
	}
	if r.PerHost[2].Incarnations != 1 {
		t.Fatalf("host 2 incarnations = %d, want 1", r.PerHost[2].Incarnations)
	}
	if r.LateMerges != 0 {
		t.Fatalf("LateMerges = %d, want 0 (readmission watermark floor failed)", r.LateMerges)
	}
	// After readmission the host must capture again: its wire books keep
	// growing past the restart.
	if got := r.PerHost[2].Received; got == 0 {
		t.Fatal("host 2 never captured after readmission")
	}
	// The trace carries the control-plane action log.
	kinds := map[string]int{}
	for _, a := range res.Record.Actions {
		kinds[a.Kind]++
	}
	for _, k := range []string{"fleet_host_crash", "fleet_host_restart", "fleet_quarantine", "fleet_resteer", "fleet_readmit", "fleet_restore"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %q action; got %v", k, kinds)
		}
	}
}

func TestPartitionShedsAnalyticsBeforeCapture(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Schedule{
		{Kind: faults.AggLinkDown, NIC: 1, At: 2 * vtime.Millisecond, Dur: 2 * vtime.Millisecond},
	}
	res, err := Run("shed", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	h := r.PerHost[1]
	if h.Retries == 0 {
		t.Fatal("partitioned host never retried")
	}
	if r.AnalyticsShed == 0 {
		t.Fatal("degraded host shed no analytics")
	}
	if h.DegradedEnters == 0 {
		t.Fatal("host never entered degraded mode")
	}
	// Graceful degradation: analytics dies first. If the partition cost
	// capture batches, it must have shed strictly more analytics traffic
	// relative to its plane's volume than capture lost; in this short
	// partition with generous retry budget, capture survives entirely.
	if h.InFlightDropped != 0 || h.HostLost != 0 {
		t.Fatalf("short partition lost capture data: %+v", h)
	}
}

func TestBrownoutShedsAtCapture(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = faults.Schedule{
		{Kind: faults.HostBrownout, NIC: 0, At: 2 * vtime.Millisecond,
			Dur: 4 * vtime.Millisecond, Severity: 24},
	}
	res, err := Run("brownout", cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := res.Report.PerHost[0]
	if h.CaptureDropped == 0 {
		t.Fatalf("brownout host shed nothing at capture: %+v", h)
	}
	if res.Report.HostLost != 0 {
		t.Fatalf("brownout must not lose aggregation state: %+v", res.Report)
	}
}

// TestConservationUnderRandomChaos fuzzes the books: any schedule of
// host-level faults must leave FleetReceived exactly decomposed, unique
// ownership intact (Run errors otherwise), and the feed ordered.
func TestConservationUnderRandomChaos(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := testConfig()
			cfg.Packets = 8_000
			cfg.FaultSeed = seed
			cfg.Faults = faults.RandomSchedule(seed, faults.RandomConfig{
				NICs: cfg.Hosts, Events: 6,
				Horizon: 8 * vtime.Millisecond,
				MaxDur:  2 * vtime.Millisecond,
				Kinds: []faults.Kind{
					faults.HostCrash, faults.AggLinkDown, faults.HostBrownout,
				},
			})
			res, err := Run("random_chaos", cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			lastSeq := make(map[packet.FlowKey]uint64)
			for i, p := range res.Feed {
				if prev := lastSeq[p.Flow]; p.FlowSeq <= prev {
					t.Fatalf("feed[%d]: flow seq %d after %d", i, p.FlowSeq, prev)
				}
				lastSeq[p.Flow] = p.FlowSeq
			}
		})
	}
}

func TestSteeringReSteerRestoreRoundTrip(t *testing.T) {
	s := NewSteering(4)
	before := make([]int, 0, 4)
	for h := 0; h < 4; h++ {
		before = append(before, s.Owned(h))
	}
	moved := s.Apply(SteerOp{Kind: OpReSteer, Host: 2, Healthy: []int{0, 1, 3}})
	if moved != before[2] {
		t.Fatalf("ReSteer moved %d entries, want %d", moved, before[2])
	}
	if s.Owned(2) != 0 {
		t.Fatalf("host 2 still owns %d entries after re-steer", s.Owned(2))
	}
	s.Apply(SteerOp{Kind: OpRestore, Host: 2})
	for h := 0; h < 4; h++ {
		if s.Owned(h) != before[h] {
			t.Fatalf("host %d owns %d after restore, want %d", h, s.Owned(h), before[h])
		}
	}
}

func TestGeneratorsAreReplicas(t *testing.T) {
	// Two hosts' generators with the same seed must emit bit-identical
	// streams — the foundation of the shared-wire model.
	collect := func() []frame {
		var out []frame
		sched := vtime.NewScheduler()
		flows := newFlowPool(42, 16)
		newGenerator(sched, 42, flows, 500, vtime.Microsecond, func(fr frame) {
			out = append(out, fr)
		})
		sched.Run()
		return out
	}
	a, b := collect(), collect()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("generators emitted %d and %d frames, want 500", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
