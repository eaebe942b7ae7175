package fleet

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vtime"
	"repro/internal/vtime/domain"
)

// aggregator is the fleet's merge point and control plane. It owns the
// authoritative steering table, scores host health from arrival
// silence, broadcasts quarantine/readmission steering ops, and merges
// the per-host capture streams into one globally ordered feed behind a
// watermark: a packet is emitted only once every active host has proven
// (by its newest batch) that it will never send anything older.
type aggregator struct {
	cfg    *Config
	sched  *vtime.Scheduler
	tx     *domain.Tx     // control-plane sender
	ctl    []*domain.Port // per-host control ports
	steer  *Steering      // authoritative table
	rec    *obs.Recorder
	health *obs.HealthSampler // nil unless traced; every method nil-safe
	pool   *batchPool         // where a received batch's array goes back

	// Per-host merge and health state. Host h's unmerged packets are
	// buf[h][head[h]:], sorted by TS (FIFO link); the array is reused
	// across batches rather than resliced away from its front.
	buf         [][]Packet
	head        []int
	watermark   []vtime.Time
	lastSeen    []vtime.Time
	strikes     []int
	quarantined []bool
	helloInc    []int
	helloCnt    []int

	// Feed state.
	lastTS vtime.Time
	ledger *fnv
	enc    []byte // appendLedger scratch, reused per emitted packet
	feed   []Packet

	// Books.
	aggregated    uint64
	aggPerHost    []uint64
	lateMerges    uint64
	staleRejected uint64
	stalePerHost  []uint64
	quarantines   uint64
	readmissions  uint64
	resteers      uint64
	steerMoves    uint64
	anlAgg        uint64
}

func newAggregator(cfg *Config, sched *vtime.Scheduler, steer *Steering, rec *obs.Recorder, pool *batchPool) *aggregator {
	h := cfg.Hosts
	return &aggregator{
		cfg: cfg, sched: sched, steer: steer, rec: rec, pool: pool,
		buf:          make([][]Packet, h),
		head:         make([]int, h),
		watermark:    make([]vtime.Time, h),
		lastSeen:     make([]vtime.Time, h),
		strikes:      make([]int, h),
		quarantined:  make([]bool, h),
		helloInc:     make([]int, h),
		helloCnt:     make([]int, h),
		aggPerHost:   make([]uint64, h),
		stalePerHost: make([]uint64, h),
		ledger:       newFNV(),
	}
}

// receive is the aggregation port handler.
func (a *aggregator) receive(at vtime.Time, payload any) {
	a.health.Observe(at)
	m := payload.(aggMsg)
	switch m.kind {
	case msgBatch:
		a.lastSeen[m.host] = at
		a.strikes[m.host] = 0
		if m.watermark > a.watermark[m.host] {
			a.watermark[m.host] = m.watermark
		}
		// Staleness gate: a packet older than the emitted frontier can no
		// longer be merged without inverting the feed — it was in flight
		// (or stuck behind a partition) while its flow moved on, so it is
		// rejected here and accounted as an in-flight drop. This is what
		// keeps per-flow order strict even when a quarantine was a false
		// positive and the host's backlog eventually lands.
		for _, p := range m.pkts {
			if p.TS < a.lastTS {
				a.staleRejected++
				a.stalePerHost[m.host]++
				a.rec.FleetReject(p.Host, p.Seq, at)
				a.rec.DropN(obs.DropStalenessReject, p.Host, -1, 1, at)
				continue
			}
			a.push(m.host, p)
		}
		// Every packet now lives in the merge buffer, so the array is dead.
		a.pool.put(m.pkts)
		if a.quarantined[m.host] {
			// A batch from a quarantined host proves the quarantine was a
			// false positive (partition heal, not death): readmit it on the
			// spot. Its backlog watermark holds the merge back until the
			// backlog drains, which is the conservative, order-safe choice.
			a.readmit(m.host, at)
		}
		a.checkHealth(m.host, at)
		a.drain(a.minWatermark(), at)
	case msgAnalytics:
		a.lastSeen[m.host] = at
		a.strikes[m.host] = 0
		a.anlAgg++
		a.checkHealth(m.host, at)
	case msgHello:
		a.lastSeen[m.host] = at
		a.strikes[m.host] = 0
		if m.incarnation != a.helloInc[m.host] {
			a.helloInc[m.host] = m.incarnation
			a.helloCnt[m.host] = 0
		}
		a.helloCnt[m.host]++
		if a.helloCnt[m.host] >= a.cfg.HelloReadmit && a.quarantined[m.host] {
			// A restarted host lost all capture state, so nothing older
			// than its restart is in flight. The restore op reaches the
			// replicas at at+CtrlLatency; the host captures nothing before
			// then, so that is a safe watermark floor.
			a.watermark[m.host] = at + a.cfg.CtrlLatency
			a.readmit(m.host, at)
		}
		a.checkHealth(m.host, at)
	}
}

// checkHealth scores every other host for silence: a host unheard from
// for SuspectAfter — while traffic from its peers keeps arriving —
// takes one strike per arrival, and QuarantineScore strikes quarantine
// it. Strikes (not a single timeout) make detection latency explicit
// and keep the check purely arrival-driven: no watchdog timer to hold
// the event queue open.
func (a *aggregator) checkHealth(from int, now vtime.Time) {
	for h := 0; h < a.cfg.Hosts; h++ {
		if h == from || a.quarantined[h] {
			continue
		}
		if now-a.lastSeen[h] <= a.cfg.SuspectAfter {
			continue
		}
		a.strikes[h]++
		if a.strikes[h] >= a.cfg.QuarantineScore {
			a.quarantine(h, now)
		}
	}
}

// quarantine removes the host from the active set and re-steers its
// flows across the healthy hosts. The merge stops waiting on its
// watermark immediately; its already-buffered packets still drain in
// global order.
func (a *aggregator) quarantine(h int, now vtime.Time) {
	a.quarantined[h] = true
	a.strikes[h] = 0
	a.quarantines++
	a.rec.Action("fleet_quarantine", h, -1, int64(now), now)
	healthy := make([]int, 0, a.cfg.Hosts)
	for i := 0; i < a.cfg.Hosts; i++ {
		if !a.quarantined[i] {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 {
		return // nowhere to steer; leave the table alone
	}
	a.broadcast(SteerOp{Kind: OpReSteer, Host: h, Healthy: healthy}, now)
	// The quarantined host no longer gates the merge — whatever cleared
	// the watermark floor can go out now.
	a.drain(a.minWatermark(), now)
}

// readmit returns a host to the active set and restores its canonical
// steering entries. The caller has already set a safe watermark.
func (a *aggregator) readmit(h int, now vtime.Time) {
	a.quarantined[h] = false
	a.strikes[h] = 0
	a.helloCnt[h] = 0
	a.readmissions++
	a.rec.Action("fleet_readmit", h, -1, int64(now), now)
	a.broadcast(SteerOp{Kind: OpRestore, Host: h}, now)
}

// broadcast applies a steering op to the authoritative table and ships
// it to every replica. All control ports share CtrlLatency, so every
// replica applies the op at the same virtual instant and the replicas
// stay mutually identical — the property ownership uniqueness rests on.
func (a *aggregator) broadcast(op SteerOp, now vtime.Time) {
	moved := a.steer.Apply(op)
	a.steerMoves += uint64(moved)
	if op.Kind == OpReSteer {
		a.resteers++
	}
	a.rec.Action("fleet_"+op.Kind.String(), op.Host, -1, int64(moved), now)
	for h := 0; h < a.cfg.Hosts; h++ {
		a.tx.Send(a.ctl[h], op)
	}
}

// minWatermark is the merge frontier: the oldest newest-known capture
// time across active hosts. Quarantined hosts do not gate it (that is
// the point of quarantine), but their buffers still participate in the
// merge below it.
func (a *aggregator) minWatermark() vtime.Time {
	const inf = vtime.Time(1) << 62
	w := inf
	active := false
	for h := 0; h < a.cfg.Hosts; h++ {
		if a.quarantined[h] {
			continue
		}
		active = true
		if a.watermark[h] < w {
			w = a.watermark[h]
		}
	}
	if !active {
		return inf // whole fleet quarantined: nothing can be in flight
	}
	return w
}

// push appends p to host h's merge buffer. When the array is full and
// at least half of it is already merged, the live tail is copied down
// over the merged prefix instead of letting append grow the array; the
// half rule keeps each packet's share of the copying constant.
func (a *aggregator) push(h int, p Packet) {
	b, hd := a.buf[h], a.head[h]
	if hd > 0 && len(b) == cap(b) && 2*hd >= len(b) {
		b = b[:copy(b, b[hd:])]
		a.head[h] = 0
	}
	a.buf[h] = append(b, p)
}

// drain emits every buffered packet with TS ≤ w, smallest
// (TS, host, seq) first — a k-way merge over the per-host FIFO buffers.
// at is the virtual time the merge runs (the triggering delivery, or
// the global run end during finish), passed explicitly rather than read
// from the scheduler's clock.
func (a *aggregator) drain(w, at vtime.Time) {
	for {
		best := -1
		for h := 0; h < a.cfg.Hosts; h++ {
			if a.head[h] == len(a.buf[h]) || a.buf[h][a.head[h]].TS > w {
				continue
			}
			if best < 0 {
				best = h
				continue
			}
			ph, pb := &a.buf[h][a.head[h]], &a.buf[best][a.head[best]]
			if ph.TS < pb.TS || (ph.TS == pb.TS && h < best) {
				best = h
			}
		}
		if best < 0 {
			return
		}
		a.emit(a.buf[best][a.head[best]], at)
		if a.head[best]++; a.head[best] == len(a.buf[best]) {
			a.buf[best] = a.buf[best][:0]
			a.head[best] = 0
		}
	}
}

// emit appends one packet to the global feed and the ledger.
func (a *aggregator) emit(p Packet, at vtime.Time) {
	if p.TS < a.lastTS {
		a.lateMerges++
	} else {
		a.lastTS = p.TS
	}
	a.aggregated++
	a.aggPerHost[p.Host]++
	a.rec.FleetEmit(p.Host, p.Seq, at)
	a.enc = appendLedger(a.enc[:0], p)
	a.ledger.write(a.enc)
	if a.cfg.CollectFeed {
		a.feed = append(a.feed, p)
	}
}

// appendLedger appends p's ledger record to b: the bytes of
// fmt.Sprintf("%d|%d|%d|%d|%d;", p.TS, p.Host, p.Seq, p.FlowSeq, p.Len),
// which every committed fleet digest hashes, built without fmt.
func appendLedger(b []byte, p Packet) []byte {
	b = strconv.AppendInt(b, int64(p.TS), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.Host), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, p.Seq, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, p.FlowSeq, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.Len), 10)
	return append(b, ';')
}

// finish runs after the executive drains: everything still buffered is
// final — no more messages can arrive — so the frontier is infinite and
// the remaining packets merge out in canonical order, stamped at the
// global run end.
func (a *aggregator) finish(end vtime.Time) {
	a.health.Observe(end)
	a.drain(vtime.Time(1)<<62, end)
}

// registerHealth exposes the aggregator's books on its private health
// registry (traced runs only).
func (a *aggregator) registerHealth(reg *metrics.Registry) {
	reg.CounterFunc("aggregated", func() uint64 { return a.aggregated })
	reg.CounterFunc("stale_rejected", func() uint64 { return a.staleRejected })
	reg.CounterFunc("late_merges", func() uint64 { return a.lateMerges })
	reg.CounterFunc("quarantines", func() uint64 { return a.quarantines })
	reg.CounterFunc("readmissions", func() uint64 { return a.readmissions })
	reg.CounterFunc("resteers", func() uint64 { return a.resteers })
	reg.CounterFunc("steer_moves", func() uint64 { return a.steerMoves })
	reg.CounterFunc("analytics_aggregated", func() uint64 { return a.anlAgg })
	reg.GaugeFunc("agg_buffered", func() int64 {
		var n int
		for h := range a.buf {
			n += len(a.buf[h]) - a.head[h]
		}
		return int64(n)
	})
}
