package core

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Tests for the paper's §5e alternative paradigms: several application
// threads sharing one receive queue's work-queue pair.

func TestThreadsPerQueueAbsorbOverload(t *testing.T) {
	run := func(threads int) (float64, uint64) {
		sched := vtime.NewScheduler()
		n := oneQueueNIC(sched)
		h := newTestHandler(heavyCost)
		e := newEngine(t, sched, n, Config{M: 256, R: 100, ThreadsPerQueue: threads}, h)
		// 100 kp/s sustained against 38.8 kp/s per thread: one thread
		// drowns, three keep up.
		src := trace.NewConstantRate(trace.ConstantRateConfig{
			Packets: 200_000, LineRateBps: 100_000 * 84 * 8,
		})
		st := trace.Drive(sched, n, src, nil)
		sched.Run()
		checkPools(t, e)
		return e.Stats().DropRate(st.Sent), h.processed
	}
	oneRate, _ := run(1)
	threeRate, processed := run(3)
	if oneRate < 0.3 {
		t.Fatalf("single thread drop rate %.2f, want heavy", oneRate)
	}
	if threeRate > 0.01 {
		t.Fatalf("three threads drop rate %.2f, want ~0", threeRate)
	}
	if processed != 200_000 {
		t.Fatalf("three threads processed %d of 200000", processed)
	}
}

func TestThreadsPerQueueNoDoubleDelivery(t *testing.T) {
	// Several threads pulling from one work queue must deliver each
	// packet exactly once.
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(vtime.Microsecond)
	e := newEngine(t, sched, n, Config{M: 64, R: 100, ThreadsPerQueue: 4, FlushTimeout: vtime.Millisecond}, h)
	// 2 Mp/s against 4 x 1 Mp/s threads: comfortably within capacity.
	src := trace.NewConstantRate(trace.ConstantRateConfig{
		Packets: 10_000, LineRateBps: 2_000_000 * 84 * 8,
	})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.processed != 10_000 {
		t.Fatalf("processed %d, want exactly 10000", h.processed)
	}
	if got := e.Stats().Totals().Received; got != h.processed {
		t.Fatalf("received %d != processed %d", got, h.processed)
	}
	checkPools(t, e)
}

func TestThreadsPerQueueWithOffloading(t *testing.T) {
	// The two mechanisms compose: multi-thread queues inside an advanced-
	// mode buddy group.
	sched := vtime.NewScheduler()
	n := nic.New(sched, nic.Config{ID: 0, RxQueues: 2, RingSize: 1024, Promiscuous: true})
	h := newTestHandler(heavyCost)
	e := newEngine(t, sched, n, Config{M: 256, R: 100, Mode: Advanced, ThreadsPerQueue: 2}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{
		Packets: 200_000, Queues: 2, SingleQueue: true, LineRateBps: 140_000 * 84 * 8,
	})
	st := trace.Drive(sched, n, src, nil)
	sched.Run()
	if rate := e.Stats().DropRate(st.Sent); rate > 0.01 {
		t.Fatalf("drop rate %.3f with 4 effective threads for 140 kp/s", rate)
	}
	checkPools(t, e)
}

func TestCloseStopsCapture(t *testing.T) {
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(vtime.Microsecond)
	e := newEngine(t, sched, n, Config{M: 64, R: 100, FlushTimeout: vtime.Millisecond}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 500})
	trace.Drive(sched, n, src, nil)
	sched.Run()
	if h.processed != 500 {
		t.Fatalf("processed %d before close", h.processed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !e.closed {
		t.Fatal("closed false after Close")
	}
	// Traffic after close never reaches host memory: pure wire drops.
	src2 := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 300, Start: sched.Now()})
	trace.Drive(sched, n, src2, nil)
	sched.Run()
	if h.processed != 500 {
		t.Fatalf("processed %d after close", h.processed)
	}
	if got := n.Stats().TotalWireDrops(); got != 300 {
		t.Fatalf("wire drops after close = %d, want 300", got)
	}
	// Idempotent.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosePendingFlushTimerCancelled(t *testing.T) {
	sched := vtime.NewScheduler()
	n := oneQueueNIC(sched)
	h := newTestHandler(vtime.Microsecond)
	e := newEngine(t, sched, n, Config{M: 256, R: 100, FlushTimeout: 50 * vtime.Millisecond}, h)
	src := trace.NewConstantRate(trace.ConstantRateConfig{Packets: 5})
	trace.Drive(sched, n, src, nil)
	// Run just past delivery of the packets into the ring, then close
	// before the flush timer fires.
	sched.RunUntil(vtime.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if h.processed != 0 {
		t.Fatalf("flush fired after close: processed %d", h.processed)
	}
	if sched.Pending() != 0 {
		t.Fatalf("%d events still pending", sched.Pending())
	}
}
