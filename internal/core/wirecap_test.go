package core

import (
	"strings"
	"testing"

	"repro/internal/engines"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/trace"
	"repro/internal/vtime"
)

type testHandler struct {
	cost      vtime.Time
	processed uint64
	perQueue  map[int]uint64
	deferDone bool
	deferred  []func()
}

func newTestHandler(cost vtime.Time) *testHandler {
	return &testHandler{cost: cost, perQueue: map[int]uint64{}}
}

func (h *testHandler) Cost(int, []byte) vtime.Time { return h.cost }

func (h *testHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	h.processed++
	h.perQueue[q]++
	if h.deferDone {
		h.deferred = append(h.deferred, done)
		return
	}
	done()
}

// heavyCost is the x=300 pkt_handler cost (38,844 p/s).
const heavyCost = 25744 * vtime.Nanosecond

func newEngine(t *testing.T, sched *vtime.Scheduler, n *nic.NIC, cfg Config, h engines.Handler) *Engine {
	t.Helper()
	if cfg.Costs == (engines.CostModel{}) {
		cfg.Costs = engines.DefaultCosts()
	}
	e, err := New(sched, n, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func oneQueueNIC(sched *vtime.Scheduler) *nic.NIC {
	return nic.New(sched, nic.Config{ID: 0, RxQueues: 1, RingSize: 1024, Promiscuous: true})
}

func checkPools(t *testing.T, e *Engine) {
	t.Helper()
	for q := range e.queues {
		if err := e.queues[q].pool.CheckInvariants(); err != nil {
			t.Fatalf("queue %d: %v", q, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(0)
	cases := []Config{
		{M: 0, R: 100},
		{M: 256, R: 0},
		{M: 64, R: 10},                      // R*M=640 < ring 1024
		{M: 256, R: 100, ThresholdPct: 101}, //
		{M: 256, R: 100, BuddyGroups: [][]int{{0, 7}}},   // bad queue
		{M: 256, R: 100, BuddyGroups: [][]int{{0}, {0}}}, // duplicate
	}
	for i, cfg := range cases {
		cfg.Costs = engines.DefaultCosts()
		if _, err := New(sched, n, cfg, h); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestName(t *testing.T) {
	sched := vtime.NewScheduler()
	h := newTestHandler(0)
	b := newEngine(t, sched, oneQueueNIC(sched), Config{M: 256, R: 100}, h)
	if b.Name() != "WireCAP-B-(256,100)" {
		t.Fatalf("name = %q", b.Name())
	}
	sched2 := vtime.NewScheduler()
	a := newEngine(t, sched2, oneQueueNIC(sched2), Config{M: 256, R: 100, Mode: Advanced}, h)
	if a.Name() != "WireCAP-A-(256,100,60%)" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestBasicWireRateNoLoss(t *testing.T) {
	// Figure 8: x=0, wire rate, any (M, R): zero drops, full delivery.
	for _, geo := range []struct{ m, r int }{{64, 100}, {128, 100}, {256, 100}} {
		sched := vtime.NewScheduler()
		n := oneQueueNIC(sched)
		h := newTestHandler(10 * vtime.Nanosecond)
		e := newEngine(t, sched, n, Config{M: geo.m, R: geo.r}, h)
		src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 30000})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		stats := e.Stats().Totals()
		if stats.TotalDrops() != 0 {
			t.Fatalf("(%d,%d): %d drops", geo.m, geo.r, stats.TotalDrops())
		}
		if h.processed != st.Sent {
			t.Fatalf("(%d,%d): processed %d of %d", geo.m, geo.r, h.processed, st.Sent)
		}
		checkPools(t, e)
	}
}

func TestBasicBurstAbsorption(t *testing.T) {
	// Figure 9: under x=300 load, a wire-rate burst survives iff it fits
	// the pool: P <= ~R*M * Pin/(Pin-Pp).
	run := func(m, r int, p uint64) (drops uint64, processed uint64) {
		sched := vtime.NewScheduler()
		n := oneQueueNIC(sched)
		h := newTestHandler(heavyCost)
		e := newEngine(t, sched, n, Config{M: m, R: r}, h)
		src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: p})
		trace.Drive(sched, n, src, nil)
		sched.Run()
		checkPools(t, e)
		return e.Stats().Totals().TotalDrops(), h.processed
	}
	// (256,100) buffers 25,600 packets: a 20k burst fits, 100k does not.
	if drops, processed := run(256, 100, 20000); drops != 0 || processed != 20000 {
		t.Fatalf("20k burst into (256,100): drops %d processed %d", drops, processed)
	}
	if drops, _ := run(256, 100, 100000); drops == 0 {
		t.Fatal("100k burst into (256,100): no drops")
	}
	// (256,500) buffers 128,000: the 100k burst fits (paper: no drops at
	// P=100,000 for WireCAP-B-(256,500)).
	if drops, processed := run(256, 500, 100000); drops != 0 || processed != 100000 {
		t.Fatalf("100k burst into (256,500): drops %d processed %d", drops, processed)
	}
}

func TestRMInvariance(t *testing.T) {
	// Figure 10: only the product R*M matters.
	var rates []float64
	for _, geo := range []struct{ m, r int }{{64, 400}, {128, 200}, {256, 100}} {
		sched := vtime.NewScheduler()
		n := oneQueueNIC(sched)
		h := newTestHandler(heavyCost)
		e := newEngine(t, sched, n, Config{M: geo.m, R: geo.r}, h)
		src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 60000})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		rates = append(rates, e.Stats().DropRate(st.Sent))
	}
	for i := 1; i < len(rates); i++ {
		if diff := rates[i] - rates[0]; diff > 0.03 || diff < -0.03 {
			t.Fatalf("drop rates diverge across equal R*M: %v", rates)
		}
	}
}

func TestFlushDeliversPartialChunk(t *testing.T) {
	// A handful of packets, far fewer than M, must still reach the
	// application via the timeout flush, as copies.
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(vtime.Microsecond)
	e := newEngine(t, sched, n, Config{M: 256, R: 100, FlushTimeout: vtime.Millisecond}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 7})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.processed != 7 {
		t.Fatalf("processed %d of 7", h.processed)
	}
	qs := e.QueueStats(0)
	if qs.ChunksFlushed == 0 || qs.FlushedPackets != 7 {
		t.Fatalf("flush stats = %+v", qs)
	}
	if qs.ChunksCaptured != qs.ChunksFlushed {
		// Flush captures count as chunk captures too? They are counted
		// separately: no full-chunk capture should have happened.
		if qs.ChunksCaptured != 0 {
			t.Fatalf("unexpected full-chunk captures: %+v", qs)
		}
	}
	checkPools(t, e)
}

func TestFlushDisabled(t *testing.T) {
	// With FlushTimeout < 0 the paper's blocking capture holds partial
	// chunks forever; nothing is delivered for a tiny trickle.
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(vtime.Microsecond)
	e := newEngine(t, sched, n, Config{M: 256, R: 100, FlushTimeout: -1}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 7})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.processed != 0 {
		t.Fatalf("processed %d with flushing disabled", h.processed)
	}
	_ = e
}

func TestNoDoubleDeliveryAfterFlush(t *testing.T) {
	// Packets delivered by a flush copy must not be delivered again when
	// their chunk later fills: total processed == total sent exactly.
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(vtime.Microsecond)
	e := newEngine(t, sched, n, Config{M: 64, R: 100, FlushTimeout: vtime.Millisecond}, h)
	// Send 40 packets (partial chunk), pause 5 ms (flush), then 1000 more
	// so the chunk fills and wraps several times.
	src1 := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 40})
	trace.Drive(sched, n, src1, nil)
	sched.RunUntil(5 * vtime.Millisecond)
	src2 := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 1000, Start: sched.Now()})
	trace.Drive(sched, n, src2, nil)
	sched.Run()
	if h.processed != 1040 {
		t.Fatalf("processed %d, want exactly 1040", h.processed)
	}
	checkPools(t, e)
}

func TestAdvancedModeOffloadsLongTermImbalance(t *testing.T) {
	// One overloaded queue, three idle buddies: basic mode drops heavily,
	// advanced mode processes nearly everything (Figure 11's mechanism).
	run := func(mode Mode) (float64, *Engine, *testHandler) {
		sched := vtime.NewScheduler()
		n := nic.New(sched, nic.Config{ID: 0, RxQueues: 4, RingSize: 1024, Promiscuous: true})
		h := newTestHandler(heavyCost)
		e := newEngine(t, sched, n, Config{M: 256, R: 100, Mode: mode}, h)
		// 150k packets at 100 kp/s, all steered to queue 0: long-term
		// overload of one 38.8 kp/s thread while three buddies idle.
		src := trace.NewConstantRate(trace.ConstantRateConfig{
			Packets:     150000,
			Queues:      4,
			SingleQueue: true,
			LineRateBps: 100000 * 84 * 8,
		})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		checkPools(t, e)
		return e.Stats().DropRate(st.Sent), e, h
	}
	basicRate, _, _ := run(Basic)
	advRate, e, h := run(Advanced)
	if basicRate < 0.3 {
		t.Fatalf("basic mode drop rate %.2f unexpectedly low", basicRate)
	}
	if advRate > 0.02 {
		t.Fatalf("advanced mode drop rate %.2f, want near zero", advRate)
	}
	// The work must actually have spread across queues.
	busy := 0
	for q := 0; q < 4; q++ {
		if h.perQueue[q] > 1000 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("offloading reached only %d queues: %v", busy, h.perQueue)
	}
	if e.QueueStats(0).ChunksOffloaded == 0 {
		t.Fatal("no chunks recorded as offloaded")
	}
}

func TestBuddyGroupIsolation(t *testing.T) {
	// Queues {0,1} and {2,3} form separate groups; overload on queue 0
	// must never place work on queues 2 or 3.
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: 4, RingSize: 1024, Promiscuous: true})
	h := newTestHandler(heavyCost)
	e := newEngine(t, sched, n, Config{
		M: 256, R: 100, Mode: Advanced,
		BuddyGroups: [][]int{{0, 1}, {2, 3}},
	}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{
		Packets: 100000, Queues: 4, SingleQueue: true, LineRateBps: 100000 * 84 * 8,
	})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.perQueue[2] != 0 || h.perQueue[3] != 0 {
		t.Fatalf("offload crossed buddy groups: %v", h.perQueue)
	}
	if h.perQueue[1] == 0 {
		t.Fatalf("no offload within the group: %v", h.perQueue)
	}
	checkPools(t, e)
}

func TestThresholdLowerOffloadsSooner(t *testing.T) {
	// Figure 12: a lower T gives better (or equal) drop rates.
	run := func(threshold int) float64 {
		sched := vtime.NewScheduler()
		n := nic.New(sched, nic.Config{ID: 0, RxQueues: 4, RingSize: 1024, Promiscuous: true})
		h := newTestHandler(heavyCost)
		e := newEngine(t, sched, n, Config{M: 64, R: 100, Mode: Advanced, ThresholdPct: threshold}, h)
		src := trace.NewConstantRate(trace.ConstantRateConfig{
			Packets: 60000, Queues: 4, SingleQueue: true, LineRateBps: 300000 * 84 * 8,
		})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		return e.Stats().DropRate(st.Sent)
	}
	lo, hi := run(30), run(95)
	if lo > hi+0.01 {
		t.Fatalf("T=30%% drop rate %.3f worse than T=95%% %.3f", lo, hi)
	}
}

func TestForwardingRefcountDelaysRecycle(t *testing.T) {
	// With every done deferred, chunks must stay captured (not recycled)
	// until the deferred releases run.
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(100 * vtime.Nanosecond)
	h.deferDone = true
	e := newEngine(t, sched, n, Config{M: 64, R: 30, FlushTimeout: vtime.Millisecond}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 640})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.processed != 640 {
		t.Fatalf("processed %d", h.processed)
	}
	st := e.queues[0].pool.Stats()
	if st.Recycled != 0 {
		t.Fatalf("chunks recycled while packets held: %+v", st)
	}
	for _, done := range h.deferred {
		done()
	}
	sched.Run()
	if got := e.queues[0].pool.Stats().Recycled; got == 0 {
		t.Fatal("no chunks recycled after release")
	}
	checkPools(t, e)
}

func TestPoolExhaustionDropsAndRecovers(t *testing.T) {
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(heavyCost)
	e := newEngine(t, sched, n, Config{M: 64, R: 20}, h) // 1,280-packet pool
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 20000})
	st := trace.Drive(sched, n, src, nil)
	sched.Run()
	stats := e.Stats().Totals()
	if stats.CaptureDrops == 0 {
		t.Fatal("no capture drops with a tiny pool under a 20k burst")
	}
	if e.QueueStats(0).PoolExhausted == 0 {
		t.Fatal("PoolExhausted not counted")
	}
	if stats.Received+stats.CaptureDrops != st.Sent {
		t.Fatal("conservation violated")
	}
	// Every received packet is eventually processed: WireCAP never
	// delivery-drops.
	if h.processed != stats.Received {
		t.Fatalf("processed %d != received %d", h.processed, stats.Received)
	}
	checkPools(t, e)
}

func TestOffloadPolicies(t *testing.T) {
	for _, policy := range []OffloadPolicy{OffloadShortest, OffloadRoundRobin, OffloadRandom} {
		sched := vtime.NewScheduler()
		n := nic.New(sched, nic.Config{ID: 0, RxQueues: 4, RingSize: 1024, Promiscuous: true})
		h := newTestHandler(heavyCost)
		e := newEngine(t, sched, n, Config{M: 256, R: 100, Mode: Advanced, Policy: policy, Seed: 1}, h)
		src := trace.NewConstantRate(trace.ConstantRateConfig{
			Packets: 100000, Queues: 4, SingleQueue: true, LineRateBps: 120000 * 84 * 8,
		})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		if rate := e.Stats().DropRate(st.Sent); rate > 0.05 {
			t.Errorf("policy %d: drop rate %.3f", policy, rate)
		}
		checkPools(t, e)
	}
}

func TestSharedCaptureCore(t *testing.T) {
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: 2, RingSize: 512, Promiscuous: true})
	h := newTestHandler(10 * vtime.Nanosecond)
	e := newEngine(t, sched, n, Config{M: 64, R: 50, SharedCaptureCore: true}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 10000, Queues: 2})
	st := trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.processed != st.Sent {
		t.Fatalf("processed %d of %d", h.processed, st.Sent)
	}
	if drops := e.Stats().Totals().TotalDrops(); drops != 0 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestStatsStringsAndModes(t *testing.T) {
	if Basic.String() != "basic" || Advanced.String() != "advanced" {
		t.Fatal("mode strings")
	}
	if !strings.HasPrefix(mem.StateFree.String(), "free") {
		t.Fatal("state string")
	}
}
