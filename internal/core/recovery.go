package core

// Graceful degradation under injected faults. The recovery machinery is
// one engine-wide watchdog (PR 1's vtime.Every) that ticks only while
// there is something to watch, plus three responses:
//
//   - Quarantine: a receive queue whose ring makes no progress while
//     fault-attributed drops mount is declared dead. Its undelivered
//     backlog is discarded *in the same event* as the steering rewrite
//     that moves its flows to healthy queues — so for any flow, every
//     packet delivered before the rewrite precedes every packet
//     delivered after it, and per-flow ordering survives (with a gap,
//     never a swap).
//   - Failover: a queue whose consumer is wedged (backlog, no delivery
//     progress, no thread mid-packet) hands its backlog — and, sticky
//     for the rest of the run, all future chunks — to the least-loaded
//     live buddy. Stickiness is what preserves per-flow order: resuming
//     self-delivery while the buddy still holds older chunks would
//     reorder.
//   - Emergency reclamation: with no live buddy, a wedged queue's
//     backlog is force-recycled once the pool is exhausted or the ring
//     has gone idle, counted as explicit reclaim drops. Capture keeps
//     running and the run always drains — never a deadlock, and the
//     watchdog stops when the work does, never a livelock.
//
// Everything here runs off the deterministic virtual clock and touches
// only deterministic state, so a chaos run digests identically under
// the same seed.

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// DefaultWatchdogInterval is the recovery watchdog's tick period.
const DefaultWatchdogInterval = vtime.Millisecond

const (
	// quarantineAfterTicks is how many consecutive watchdog ticks a ring
	// must show fault drops without progress before quarantine. Short
	// descriptor stalls ride out; hangs past ~3 ms are put down.
	quarantineAfterTicks = 3
	// failoverAfterTicks is how many consecutive ticks a consumer must
	// show backlog without delivery progress (and no packet in flight)
	// before its backlog fails over.
	failoverAfterTicks = 2
	// allocRetryBase is the first retry delay after a transient
	// allocation fault; it doubles per attempt.
	allocRetryBase = 20 * vtime.Microsecond
	// maxAllocRetries bounds the backoff ladder. Past it the queue stops
	// polling the allocator; the watchdog's starvation healing (or the
	// next recycle) re-arms once chunks actually flow again.
	maxAllocRetries = 8
	// maxFlushRetries bounds consecutive flush timeouts that find no free
	// chunk to copy into before the pending window is reclaimed. Without
	// the bound a pool whose capacity barely covers the ring (every chunk
	// permanently attached) would retry the flush forever.
	maxFlushRetries = 8
)

// action records one recovery action in the flight recorder.
func (e *Engine) action(kind string, queue int, arg int64) {
	e.trace.Action(kind, e.nicID, queue, arg, e.sched.Now())
}

// armWatchdog (re)starts the watchdog if recovery is on and it is not
// already ticking. Called from fault activations (via OnActivate) and
// from every queue kick, the two deterministic moments new trouble can
// start while the watchdog sleeps.
func (e *Engine) armWatchdog() {
	if e.wd != nil && !e.wd.Armed() {
		e.wd.Schedule(e.cfg.WatchdogInterval)
	}
}

// watchdogTick examines every queue and stops the timer when nothing is
// in flight and no further fault event is scheduled — the event queue
// must drain for the run to end.
func (e *Engine) watchdogTick() {
	busy := false
	for _, q := range e.queues {
		if e.watch(q) {
			busy = true
		}
	}
	if !busy && e.inj.Quiet() {
		e.wd.Stop()
	}
}

// watch runs one queue's health checks and reports whether the queue
// still needs watching.
func (e *Engine) watch(q *wqueue) bool {
	if q.dead {
		return false
	}
	rs := q.ring.Stats()
	ringActive := rs.Received != q.wdReceived
	faultDrops := rs.HangDrops + rs.StallDrops
	backlog := len(q.captureQ) > 0 || q.cur != nil
	delivered := q.stats.Delivered

	// Ring health: no progress while fault-attributed drops mount means
	// the queue hardware is gone. Deliberately keyed on hang/stall drops
	// only — a ring starving for descriptors under consumer overload
	// shows WireDrops, and quarantining it would amputate a healthy
	// queue.
	if !ringActive && faultDrops > q.wdFaultDrops {
		q.stallTicks++
	} else {
		q.stallTicks = 0
	}
	if q.stallTicks >= quarantineAfterTicks {
		e.quarantine(q)
		return false
	}

	// Starvation healing: descriptors waiting for cells while the free
	// list has chunks happens when a transient-fault backoff ladder was
	// exhausted mid-window; re-arm now that allocation works again.
	if len(q.starved) > 0 && q.pool.FreeCount() > 0 {
		q.rearmStarved()
	}

	// Consumer health: deliverable backlog, no delivery progress, and no
	// thread mid-packet (a slow handler is always mid-packet at tick
	// time, so slowness never misdiagnoses as a wedge).
	if backlog && delivered == q.wdDelivered && !q.anyWorking() {
		q.wedgeTicks++
	} else {
		q.wedgeTicks = 0
	}
	if q.wedgeTicks >= failoverAfterTicks {
		q.wedgeTicks = 0
		if b := q.liveBuddy(); b != nil {
			e.failover(q, b)
		} else if q.pool.FreeCount() == 0 || !ringActive {
			// No rescue target. Reclaim when the pool is exhausted (keep
			// capturing rather than deadlock) or when traffic has ended
			// (drain the run). While the pool has headroom and packets
			// still flow, keep buffering — the consumer may come back.
			e.reclaimBacklog(q)
		}
	}

	q.wdReceived = rs.Received
	q.wdFaultDrops = faultDrops
	q.wdDelivered = delivered
	// Starved descriptors alone do not count as business: healing them
	// needs a free chunk, which only a recycle or reclaim can produce —
	// both of which re-arm directly. If nothing else is in flight and the
	// pool is empty, ticking forever would be the livelock, not the cure.
	return ringActive || backlog || len(q.capPending) > 0 ||
		len(q.recycleQ) > 0
}

// quarantine declares queue q dead: discard its undelivered backlog,
// reclaim its attached chunks, detach its descriptors, and rewrite the
// NIC's steering so q's flows land on healthy queues — all inside this
// one event, which is what makes the re-steer order-safe. A packet
// already charged to a handler completes (it was counted delivered at
// fetch); its re-steered successors cannot complete earlier, because
// their path through a fresh chunk, a capture ioctl, and a handler
// charge begins only after this event.
func (e *Engine) quarantine(q *wqueue) {
	q.dead = true
	q.stats.Quarantines++
	e.action("quarantine", q.queue, 0)
	q.flushTimer.Stop()
	q.flushTarget = nil
	if q.retryTimer != nil {
		q.retryTimer.Stop()
	}

	// Undelivered backlog: captured chunks nobody will drain. Their
	// packets were received, so they must die accounted — as delivery
	// drops, the "captured but never reached the application" class.
	for _, h := range q.captureQ {
		good := goodRemaining(h)
		q.stats.DeliveryDrops += good
		e.trace.ChunkDrop(obs.DropQuarantineBacklog, e.nicID, q.queue, chunkTID(h.chunk), good, e.sched.Now())
		e.trace.ChunkRecycle(e.nicID, chunkTID(h.chunk), e.sched.Now())
		if err := h.owner.pool.Recycle(h.meta); err != nil {
			panic(fmt.Sprintf("core: quarantine recycle failed: %v", err))
		}
		owner := h.owner
		e.freeHanded(h)
		owner.rearmStarved()
	}
	q.captureQ = q.captureQ[:0]
	if h := q.cur; h != nil {
		q.cur = nil
		good := goodRemaining(h)
		q.stats.DeliveryDrops += good
		e.trace.ChunkDrop(obs.DropQuarantineBacklog, e.nicID, q.queue, chunkTID(h.chunk), good, e.sched.Now())
		if h.outstanding == 0 {
			e.trace.ChunkRecycle(e.nicID, chunkTID(h.chunk), e.sched.Now())
			if err := h.owner.pool.Recycle(h.meta); err != nil {
				panic(fmt.Sprintf("core: quarantine recycle failed: %v", err))
			}
			owner := h.owner
			e.freeHanded(h)
			owner.rearmStarved()
		} else {
			// A delivered packet is still out (in flight on a handler or
			// parked in a TX ring). Mark the chunk fully dispatched; the
			// last release routes it through the normal recycle path.
			h.dispatched = true
		}
	}

	// Attached chunks: partially filled receive-side buffers, including
	// the arming frontier. Chunks already queued for their capture ioctl
	// are skipped — captureDone sees q.dead and reclaims them when the
	// charge completes (the server event cannot be recalled).
	pending := make(map[*mem.Chunk]bool, len(q.capPending))
	for _, c := range q.capPending {
		pending[c] = true
	}
	q.pool.ForEachAttached(func(c *mem.Chunk) {
		if pending[c] {
			return
		}
		q.stats.ReclaimDrops += uint64(c.GoodPending())
		q.stats.ChunksReclaimed++
		e.trace.ChunkDrop(obs.DropReclaim, e.nicID, q.queue, chunkTID(c), uint64(c.GoodPending()), e.sched.Now())
		if err := q.pool.Reclaim(c); err != nil {
			panic(fmt.Sprintf("core: quarantine reclaim failed: %v", err))
		}
	})
	q.armChunk = nil
	q.armCell = 0
	q.starved = q.starved[:0]
	for i := 0; i < q.ring.Size(); i++ {
		q.ring.Invalidate(i)
	}
	// Packets DMA'd into descriptors the invalidation just orphaned are
	// not counted by any metrics series; their traces end here without a
	// ledger entry for the same reason.
	//wirelint:allow conservation orphaned in-flight descriptors appear in no metrics series by design; this attribution closes their traces with no counter to pair with
	e.trace.AbandonQueue(obs.DropQuarantineBacklog, e.nicID, q.queue, e.sched.Now())

	// Re-steer the dead queue's flows. The steering rewrite happens in
	// this same event as the backlog discard above: no packet of a
	// re-steered flow can now be delivered out of order.
	healthy := make([]int, 0, len(e.queues))
	for _, o := range e.queues {
		if !o.dead {
			healthy = append(healthy, o.queue)
		}
	}
	if rs, ok := e.n.Steering().(nic.QueueReSteerer); ok && len(healthy) > 0 {
		moved := rs.ReSteerQueue(q.queue, healthy)
		q.stats.ReSteeredEntries += uint64(moved)
		e.action("re_steer", q.queue, int64(moved))
	}
}

// liveBuddy returns the least-loaded buddy able to take over a wedged
// queue's backlog: not itself, not quarantined, not already rerouted,
// and its own consumer not crashed. Ties break to the lowest group
// position, deterministically.
func (q *wqueue) liveBuddy() *wqueue {
	var best *wqueue
	for _, b := range q.buddies {
		if b == q || b.dead || b.rerouted {
			continue
		}
		if q.e.inj.HandlerCrashed(q.e.n.ID(), b.queue) {
			continue
		}
		if best == nil || len(b.captureQ) < len(best.captureQ) {
			best = b
		}
	}
	return best
}

// goodRemaining counts the undelivered deliverable packets of a handed
// chunk: the PktCount window past the cursor, minus corrupt-frame
// tombstones (those were accounted as corrupt drops at receive time).
func goodRemaining(h *handedChunk) uint64 {
	n := uint64(0)
	for i := h.next; i < h.meta.PktCount; i++ {
		if !h.chunk.Bad(h.chunk.Base() + i) {
			n++
		}
	}
	return n
}

// anyWorking reports whether any of the queue's threads is mid-packet.
func (q *wqueue) anyWorking() bool {
	for _, th := range q.threads {
		if th.Working() {
			return true
		}
	}
	return false
}

// failover hands a wedged queue's backlog — current chunk first, then
// the capture queue, preserving arrival order — to buddy b, and routes
// all of q's future chunks there (sticky; see the package comment on
// why un-sticking would reorder flows). The partially drained current
// chunk carries its own cursor and release closure, so b resumes it
// exactly where q stopped: no packet is delivered twice.
func (e *Engine) failover(q, b *wqueue) {
	q.rerouted = true
	q.rerouteTo = b
	q.stats.HandlerFailovers++
	e.action("failover", q.queue, int64(b.queue))
	moved := false
	if q.cur != nil {
		b.captureQ = append(b.captureQ, q.cur)
		q.cur = nil
		moved = true
	}
	if len(q.captureQ) > 0 {
		b.captureQ = append(b.captureQ, q.captureQ...)
		q.captureQ = q.captureQ[:0]
		moved = true
	}
	if moved {
		b.kick()
	}
}

// reclaimBacklog force-recycles a wedged queue's undrainable backlog,
// accounting every discarded packet as a reclaim drop. The current
// chunk is skipped while deliveries are still outstanding on it (a TX
// ring may be reading its cells); the next tick collects it once the
// last release runs.
func (e *Engine) reclaimBacklog(q *wqueue) {
	e.action("reclaim_backlog", q.queue, int64(len(q.captureQ)))
	for _, h := range q.captureQ {
		good := goodRemaining(h)
		q.stats.ReclaimDrops += good
		q.stats.ChunksReclaimed++
		e.trace.ChunkDrop(obs.DropReclaim, e.nicID, q.queue, chunkTID(h.chunk), good, e.sched.Now())
		e.trace.ChunkRecycle(e.nicID, chunkTID(h.chunk), e.sched.Now())
		if err := h.owner.pool.Recycle(h.meta); err != nil {
			panic(fmt.Sprintf("core: emergency reclaim failed: %v", err))
		}
		owner := h.owner
		e.freeHanded(h)
		owner.rearmStarved()
	}
	q.captureQ = q.captureQ[:0]
	if h := q.cur; h != nil && h.outstanding == 0 && !q.anyWorking() {
		q.cur = nil
		good := goodRemaining(h)
		q.stats.ReclaimDrops += good
		q.stats.ChunksReclaimed++
		e.trace.ChunkDrop(obs.DropReclaim, e.nicID, q.queue, chunkTID(h.chunk), good, e.sched.Now())
		e.trace.ChunkRecycle(e.nicID, chunkTID(h.chunk), e.sched.Now())
		if err := h.owner.pool.Recycle(h.meta); err != nil {
			panic(fmt.Sprintf("core: emergency reclaim failed: %v", err))
		}
		owner := h.owner
		e.freeHanded(h)
		owner.rearmStarved()
	}
}

// scheduleAllocRetry arms the bounded-backoff retry after a transient
// allocation fault: 20 us doubling per attempt, at most maxAllocRetries
// attempts per episode (rearmStarved resets the ladder on success).
func (q *wqueue) scheduleAllocRetry() {
	if q.retryTimer == nil || q.retryTimer.Armed() || q.retryAttempt >= maxAllocRetries {
		return
	}
	d := allocRetryBase << q.retryAttempt
	q.retryAttempt++
	q.stats.AllocRetries++
	q.e.action("alloc_retry", q.queue, int64(q.retryAttempt))
	q.retryTimer.Schedule(d)
}

// allocRetryTick is the retry timer's bound callback: try to re-arm the
// starving descriptors. On another transient failure rearmStarved
// schedules the next rung of the ladder.
func (q *wqueue) allocRetryTick() {
	if q.dead {
		return
	}
	q.rearmStarved()
}
