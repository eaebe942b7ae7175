package fleet

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vtime"
	"repro/internal/vtime/domain"
)

// host is one capture box: it filters the shared offered stream through
// its private steering replica, batches what it owns, and ships batches
// to the aggregator over a rate-limited, fault-prone link with bounded
// deterministic retry/backoff. All state is per-incarnation where the
// model says a crash loses it.
type host struct {
	id     int
	cfg    *Config
	sched  *vtime.Scheduler
	inj    *faults.Injector
	steer  *Steering // private replica, updated only by control ops
	tx     *domain.Tx
	agg    *domain.Port // the aggregator's inbound port
	rec    *obs.Recorder
	health *obs.HealthSampler // nil unless traced; every method nil-safe

	// Capture state (lost on crash).
	busyUntil   vtime.Time
	batch       []Packet // nil until the batch's first capture
	flushArmed  bool
	flushFn     func() // h.flushTimer, bound once
	incarnation int
	capSeq      uint64 // per-host capture sequence, survives restarts
	sinceAnl    uint64

	// Link state.
	lbus       *bus.Bus
	pending    []outMsg
	attempt    int
	retryArmed bool
	retryFn    func() // the pump retry timer, bound once
	degraded   bool

	// Books.
	offered        uint64
	wireDropped    uint64
	captureDropped uint64
	received       uint64
	hostLost       uint64
	inFlight       uint64 // InFlightDropped
	batches        uint64
	retries        uint64
	anlSent        uint64
	anlShed        uint64
	degradedEnters uint64
}

// outMsg is one queued (not yet transferred) aggregation-link message.
type outMsg struct {
	kind  msgKind
	pkts  []Packet
	bytes int
	proc  uint64
}

// helloBytes is the control datagram size charged to the link.
const helloBytes = 32

// analyticsBytes is the analytics summary size charged to the link.
const analyticsBytes = 256

func newHost(id int, cfg *Config, sched *vtime.Scheduler, steer *Steering, rec *obs.Recorder) *host {
	h := &host{
		id: id, cfg: cfg, sched: sched, steer: steer, rec: rec,
		lbus: bus.New(bus.Config{
			BytesPerSec:         cfg.LinkBytesPerSec,
			BurstBytes:          cfg.LinkBurst,
			PerTransferOverhead: cfg.MsgOverhead,
		}),
	}
	h.flushFn = h.flushTimer
	h.retryFn = func() {
		h.retryArmed = false
		h.pump()
	}
	return h
}

// down reports whether the host is inside a crash window.
func (h *host) down() bool { return h.inj.HostDown(h.id) }

// offer is the shared stream's delivery point: every host sees every
// frame; only the steering owner captures it. Because all replicas are
// identical at every virtual instant, exactly one host counts each
// frame as offered.
func (h *host) offer(fr frame) {
	if h.steer.Host(fr.flow) != h.id {
		return
	}
	now := h.sched.Now()
	h.health.Observe(now)
	h.rec.JourneySteer(h.id, fr.flow, fr.flowSeq, now)
	h.offered++
	if h.down() || !h.inj.LinkUp(h.id) {
		h.wireDropped++
		h.rec.JourneyDrop(obs.DropLink, now)
		h.rec.DropN(obs.DropLink, h.id, -1, 1, now)
		return
	}
	// The capture budget: a host that cannot keep up (brownout, or just
	// re-steered load) falls behind until the backlog cap, then sheds at
	// capture — before the aggregation books open for the packet.
	if h.busyUntil < now {
		h.busyUntil = now
	}
	if h.busyUntil-now > h.cfg.BacklogCap {
		h.captureDropped++
		h.rec.JourneyDrop(obs.DropHostBrownoutShed, now)
		h.rec.DropN(obs.DropHostBrownoutShed, h.id, -1, 1, now)
		return
	}
	h.busyUntil += vtime.Time(float64(h.cfg.CaptureCost) * h.inj.HostSlowdown(h.id))
	h.capSeq++
	h.received++
	h.rec.JourneyCapture(h.capSeq, now)
	if h.batch == nil {
		h.batch = make([]Packet, 0, h.cfg.BatchPackets)
	}
	h.batch = append(h.batch, Packet{
		Host: h.id, Flow: fr.flow, FlowSeq: fr.flowSeq,
		Seq: h.capSeq, TS: now, Len: fr.len,
	})
	if len(h.batch) >= h.cfg.BatchPackets {
		h.flush()
	} else if !h.flushArmed {
		h.flushArmed = true
		h.sched.After(h.cfg.FlushInterval, h.flushFn)
	}
	if h.cfg.AnalyticsEvery > 0 {
		if h.sinceAnl++; h.sinceAnl >= h.cfg.AnalyticsEvery {
			h.sinceAnl = 0
			h.emitAnalytics()
		}
	}
}

// flushTimer closes a batch by age. The timer is only armed while a
// batch is open, so an idle host schedules nothing — the event queue
// always drains.
func (h *host) flushTimer() {
	h.flushArmed = false
	h.health.Observe(h.sched.Now())
	if len(h.batch) > 0 && !h.down() {
		h.flush()
	}
}

// flush moves the open batch onto the link queue.
func (h *host) flush() {
	if len(h.batch) == 0 {
		return
	}
	now := h.sched.Now()
	bytes := 0
	for i := range h.batch {
		bytes += h.batch[i].Len
		h.rec.JourneyEnqueue(h.batch[i].Seq, now)
	}
	h.batches++
	h.enqueue(outMsg{kind: msgBatch, pkts: h.batch, bytes: bytes})
	h.batch = nil
}

// emitAnalytics sheds the summary outright when the link is degraded —
// analytics goes before capture, by policy.
func (h *host) emitAnalytics() {
	if h.degraded || len(h.pending) > 0 {
		h.anlShed++
		return
	}
	h.anlSent++
	h.enqueue(outMsg{kind: msgAnalytics, bytes: analyticsBytes, proc: h.received})
}

// enqueue admits a message to the bounded pending queue and pumps. Past
// the hard cap the queue sheds: queued analytics first, then the oldest
// capture batch (counted InFlightDropped — the bounded buffer is the
// second of the two loss points the conservation equation allows).
func (h *host) enqueue(m outMsg) {
	if len(h.pending) >= h.cfg.HardCap {
		shed := -1
		for i := range h.pending {
			if h.pending[i].kind == msgAnalytics {
				shed = i
				break
			}
		}
		if shed >= 0 {
			h.anlShed++
			h.popPending(shed)
			if shed == 0 {
				h.attempt = 0
			}
		} else {
			h.dropBatch(h.pending[0].pkts, h.sched.Now())
			h.popPending(0)
			h.attempt = 0
		}
	}
	h.pending = append(h.pending, m)
	h.setDegraded(h.retryArmed || len(h.pending) > h.cfg.SoftCap)
	h.pump()
}

// setDegraded tracks entry counts for the report.
func (h *host) setDegraded(v bool) {
	if v && !h.degraded {
		h.degradedEnters++
		h.rec.Action("fleet_degraded", h.id, -1, int64(len(h.pending)), h.sched.Now())
	}
	h.degraded = v
}

// pump drains the pending queue head-first. A failed transfer — link
// partition or exhausted token bucket — backs off deterministically:
// attempt n waits min(BackoffBase << (n-1), BackoffMax); after
// MaxAttempts the head is dropped and the next message proceeds.
func (h *host) pump() {
	if h.retryArmed {
		return
	}
	h.health.Observe(h.sched.Now())
	for len(h.pending) > 0 {
		if h.down() {
			return // crash transition clears the queue
		}
		m := &h.pending[0]
		now := h.sched.Now()
		if !h.inj.AggLinkUp(h.id) || !h.lbus.TryTransfer(now, m.bytes, 0) {
			h.attempt++
			if h.attempt > h.cfg.MaxAttempts {
				h.dropHead()
				h.attempt = 0
				continue
			}
			h.retries++
			d := h.cfg.BackoffBase << uint(h.attempt-1)
			if d > h.cfg.BackoffMax {
				d = h.cfg.BackoffMax
			}
			h.retryArmed = true
			h.setDegraded(true)
			h.sched.After(d, h.retryFn)
			return
		}
		switch m.kind {
		case msgBatch:
			for i := range m.pkts {
				h.rec.JourneyLink(m.pkts[i].Seq, now)
			}
			h.tx.Send(h.agg, aggMsg{
				kind: msgBatch, host: h.id, incarnation: h.incarnation,
				pkts: m.pkts, watermark: m.pkts[len(m.pkts)-1].TS,
			})
		case msgAnalytics:
			h.tx.Send(h.agg, aggMsg{
				kind: msgAnalytics, host: h.id, incarnation: h.incarnation,
				processed: m.proc,
			})
		}
		h.popPending(0)
		h.attempt = 0
	}
	h.setDegraded(false)
}

// dropHead gives up on the queue head after retry exhaustion.
func (h *host) dropHead() {
	m := h.pending[0]
	if m.kind == msgBatch {
		now := h.sched.Now()
		h.dropBatch(m.pkts, now)
		h.rec.Action("fleet_inflight_drop", h.id, -1, int64(len(m.pkts)), now)
	} else {
		h.anlShed++
	}
	h.popPending(0)
}

// popPending removes pending message i, shifting the tail down in place
// so the queue keeps its array instead of reslicing away from its front
// (the queue is bounded by HardCap, so the shift is short).
func (h *host) popPending(i int) {
	n := i + copy(h.pending[i:], h.pending[i+1:])
	h.pending[n] = outMsg{}
	h.pending = h.pending[:n]
}

// dropBatch charges one queued capture batch to InFlightDropped: books,
// drop ledger, and the sampled journeys it carried.
func (h *host) dropBatch(pkts []Packet, now vtime.Time) {
	h.inFlight += uint64(len(pkts))
	h.rec.DropN(obs.DropInFlightHeadDrop, h.id, -1, uint64(len(pkts)), now)
	for i := range pkts {
		h.rec.JourneyLost(pkts[i].Seq, obs.DropInFlightHeadDrop, now)
	}
}

// onFault is the injector OnTransition hook: crash opening loses all
// host-buffered aggregation state; crash closing is the restart, which
// begins the hello handshake toward readmission.
func (h *host) onFault(ev faults.Event, open bool) {
	if ev.Kind != faults.HostCrash {
		return
	}
	if open {
		h.crash()
	} else {
		h.restart()
	}
}

// crash loses the open batch and the unsent link queue — the HostLost
// side of the conservation equation. Messages already transferred onto
// the mailbox fabric are on the wire and will still arrive.
func (h *host) crash() {
	now := h.sched.Now()
	h.health.Observe(now)
	lost := uint64(len(h.batch))
	for i := range h.batch {
		h.rec.JourneyLost(h.batch[i].Seq, obs.DropHostLostCrash, now)
	}
	h.batch = nil
	for _, m := range h.pending {
		if m.kind == msgBatch {
			lost += uint64(len(m.pkts))
			for i := range m.pkts {
				h.rec.JourneyLost(m.pkts[i].Seq, obs.DropHostLostCrash, now)
			}
		} else {
			h.anlShed++
		}
	}
	h.hostLost += lost
	if lost > 0 {
		h.rec.DropN(obs.DropHostLostCrash, h.id, -1, lost, now)
	}
	h.pending = nil
	h.attempt = 0
	h.busyUntil = 0
	h.sinceAnl = 0
	h.setDegraded(false)
	h.rec.Action("fleet_host_crash", h.id, -1, int64(h.incarnation), now)
}

// restart is the post-crash boot: a fresh incarnation announces itself
// with HelloReadmit spaced hellos so the aggregator can readmit it. The
// hello count is bounded, so a restarting host cannot keep the event
// queue alive.
func (h *host) restart() {
	h.incarnation++
	h.health.Observe(h.sched.Now())
	h.rec.Action("fleet_host_restart", h.id, -1, int64(h.incarnation), h.sched.Now())
	h.sendHello(h.cfg.HelloReadmit)
}

// sendHello ships one control datagram (charged to the link bus like
// any message; lost silently under partition) and schedules the next.
func (h *host) sendHello(left int) {
	if h.down() {
		return // crashed again mid-handshake; the next restart restarts it
	}
	now := h.sched.Now()
	if h.inj.AggLinkUp(h.id) && h.lbus.TryTransfer(now, helloBytes, 0) {
		h.tx.Send(h.agg, aggMsg{kind: msgHello, host: h.id, incarnation: h.incarnation})
	}
	if left > 1 {
		h.sched.After(h.cfg.HelloInterval, func() { h.sendHello(left - 1) })
	}
}

// control applies one broadcast steering op to the host's replica.
// Replicas apply every op — even while crashed: the op log is durable
// collector-pushed configuration, replayed by the boot agent, so all
// replicas stay identical at every virtual instant (the property that
// makes ownership unique and failover order-preserving).
func (h *host) control(at vtime.Time, payload any) {
	op := payload.(SteerOp)
	h.steer.Apply(op)
}

// registerHealth exposes the host's books on its private health
// registry (one per host, traced runs only). The names intentionally
// mirror the wirecap_fleet_* registry names minus the prefix: the
// dashboard reads them as per-interval deltas, not lifetime totals.
func (h *host) registerHealth(reg *metrics.Registry) {
	reg.CounterFunc("received", func() uint64 { return h.received })
	reg.CounterFunc("wire_dropped", func() uint64 { return h.wireDropped })
	reg.CounterFunc("capture_dropped", func() uint64 { return h.captureDropped })
	reg.CounterFunc("host_lost", func() uint64 { return h.hostLost })
	reg.CounterFunc("inflight_dropped", func() uint64 { return h.inFlight })
	reg.CounterFunc("retries", func() uint64 { return h.retries })
	reg.CounterFunc("batches", func() uint64 { return h.batches })
	reg.CounterFunc("analytics_shed", func() uint64 { return h.anlShed })
	reg.CounterFunc("degraded_enters", func() uint64 { return h.degradedEnters })
	reg.GaugeFunc("pending_depth", func() int64 { return int64(len(h.pending)) })
	reg.GaugeFunc("degraded", func() int64 {
		if h.degraded {
			return 1
		}
		return 0
	})
}

// healthLane is the host's lane name in the fleet health series.
func (h *host) healthLane() string { return fmt.Sprintf("host%d", h.id) }

// report assembles the host's books.
func (h *host) report() HostReport {
	return HostReport{
		Host:            h.id,
		Offered:         h.offered,
		WireDropped:     h.wireDropped,
		CaptureDropped:  h.captureDropped,
		Received:        h.received,
		HostLost:        h.hostLost,
		InFlightDropped: h.inFlight,
		Batches:         h.batches,
		Retries:         h.retries,
		AnalyticsSent:   h.anlSent,
		AnalyticsShed:   h.anlShed,
		Incarnations:    h.incarnation,
		DegradedEnters:  h.degradedEnters,
	}
}
