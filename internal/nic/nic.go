// Package nic simulates a commodity multi-queue NIC of the Intel 82599
// class: receive descriptor rings, RSS traffic steering, DMA into host
// memory across a shared bus, promiscuous mode, and transmit rings. It
// implements exactly the receive state machine the WireCAP paper's §2.1
// describes, so the capture engines built on top of it exhibit the same
// drop behaviours as their real counterparts.
package nic

import (
	"fmt"
	"strconv"

	"repro/internal/bus"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// MaxRingSize is the Intel 82599 receive-descriptor budget per port; with
// n queues configured, each ring gets at most MaxRingSize/n descriptors
// (paper §2.1).
const MaxRingSize = 8192

// Config describes one NIC.
type Config struct {
	// ID distinguishes NICs in chunk identities and experiment output.
	ID int
	// RxQueues is the number of receive queues (n in the paper).
	RxQueues int
	// RingSize is the per-queue receive ring size; the experiments use
	// 1,024. Capped at MaxRingSize / RxQueues.
	RingSize int
	// TxQueues and TxRingSize configure the transmit side; zero TxQueues
	// means a capture-only NIC.
	TxQueues   int
	TxRingSize int
	// Steering selects the traffic-steering mechanism; nil means RSS
	// with the default key.
	Steering Steering
	// LineRateBps is the wire speed in bits/s; zero means 10 GbE.
	LineRateBps float64
	// Bus is the shared host I/O budget; nil means unlimited.
	Bus *bus.Bus
	// MAC is the station address; zero means a locally administered
	// address derived from ID.
	MAC packet.MAC
	// Promiscuous captures every frame regardless of destination MAC.
	// Packet capture puts the NIC in promiscuous mode (paper §1).
	Promiscuous bool
	// Metrics is the registry the NIC (and the capture engine built on
	// it) exports observability series into; nil means a private one.
	// All NIC series are function-backed: they sample the existing ring
	// counters only at snapshot time, so the receive hot path is
	// untouched.
	Metrics *metrics.Registry
	// Faults is the run's fault injector; nil means a well-behaved NIC.
	// Carrying it on the NIC lets every engine constructor pick it up
	// without signature changes.
	Faults *faults.Injector
	// Trace is the run's flight recorder; nil disables tracing (every
	// hook on a nil recorder is a zero-allocation no-op). Like Faults,
	// it rides the NIC so engines pick it up without signature changes.
	Trace *obs.Recorder
}

// LineRate10G is 10 Gb/s in bits per second.
const LineRate10G = 10e9

// Stats aggregates NIC-level counters.
type Stats struct {
	Delivered uint64 // frames offered to the NIC by the wire
	Filtered  uint64 // frames ignored by the MAC address filter
	Undecoded uint64 // frames that failed steering classification
	LinkDrops uint64 // frames lost on the wire while the link was down
	Rx        []RxStats
	Tx        []TxStats
}

// TotalWireDrops sums capture drops across queues.
func (s Stats) TotalWireDrops() uint64 {
	var n uint64
	for _, q := range s.Rx {
		n += q.Drops()
	}
	return n
}

// TotalReceived sums received packets across queues.
func (s Stats) TotalReceived() uint64 {
	var n uint64
	for _, q := range s.Rx {
		n += q.Received
	}
	return n
}

// NIC is a simulated multi-queue network interface card.
type NIC struct {
	cfg      Config
	sched    *vtime.Scheduler
	rx       []*RxRing
	tx       []*TxRing
	bus      *bus.Bus
	steering Steering
	metrics  *metrics.Registry
	faults   *faults.Injector
	trace    *obs.Recorder

	delivered uint64
	filtered  uint64
	undecoded uint64
	linkDrops uint64

	dec packet.Decoded // scratch for steering classification
}

// New builds a NIC.
func New(sched *vtime.Scheduler, cfg Config) *NIC {
	if cfg.RxQueues <= 0 {
		panic("nic: RxQueues must be positive")
	}
	if cfg.RingSize <= 0 {
		panic("nic: RingSize must be positive")
	}
	if max := MaxRingSize / cfg.RxQueues; cfg.RingSize > max {
		cfg.RingSize = max
	}
	if cfg.LineRateBps == 0 {
		cfg.LineRateBps = LineRate10G
	}
	if cfg.Bus == nil {
		cfg.Bus = bus.Unlimited()
	}
	if cfg.Steering == nil {
		cfg.Steering = NewRSS(cfg.RxQueues)
	}
	if cfg.MAC == (packet.MAC{}) {
		cfg.MAC = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, byte(cfg.ID + 1)}
	}
	n := &NIC{cfg: cfg, sched: sched, bus: cfg.Bus, steering: cfg.Steering, faults: cfg.Faults, trace: cfg.Trace}
	for i := 0; i < cfg.RxQueues; i++ {
		r := newRxRing(cfg.ID, i, cfg.RingSize)
		r.trace = cfg.Trace
		n.rx = append(n.rx, r)
	}
	bytesPerSec := cfg.LineRateBps / 8
	txRing := cfg.TxRingSize
	if txRing <= 0 {
		txRing = 1024
	}
	for i := 0; i < cfg.TxQueues; i++ {
		n.tx = append(n.tx, newTxRing(i, txRing, sched, bytesPerSec))
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	n.metrics = cfg.Metrics
	n.register()
	return n
}

// register exports the NIC's counters as function-backed metric series:
// sampled at snapshot time, free on the per-packet path.
func (n *NIC) register() {
	reg := n.metrics
	nicL := metrics.L("nic", strconv.Itoa(n.cfg.ID))
	reg.CounterFunc("nic_frames_offered_total", func() uint64 { return n.delivered }, nicL)
	reg.CounterFunc("nic_frames_filtered_total", func() uint64 { return n.filtered }, nicL)
	reg.CounterFunc("nic_frames_undecoded_total", func() uint64 { return n.undecoded }, nicL)
	for _, r := range n.rx {
		r := r
		qL := metrics.L("queue", strconv.Itoa(r.id))
		reg.CounterFunc("nic_rx_received_total", func() uint64 { return r.stats.Received }, nicL, qL)
		reg.CounterFunc("nic_rx_bytes_total", func() uint64 { return r.stats.Bytes }, nicL, qL)
		// Descriptor depletion: arrivals that found no ready descriptor.
		reg.CounterFunc("nic_rx_desc_depleted_total", func() uint64 { return r.stats.WireDrops }, nicL, qL)
		reg.CounterFunc("nic_rx_bus_drops_total", func() uint64 { return r.stats.BusDrops }, nicL, qL)
		// Ring occupancy: descriptors currently able to receive.
		reg.GaugeFunc("nic_rx_ring_ready", func() int64 { return int64(r.ReadyCount()) }, nicL, qL)
		if n.faults != nil {
			// Fault-path series only exist on chaos runs, keeping
			// steady-state snapshots (and their digests) lean.
			reg.CounterFunc("nic_rx_hang_drops_total", func() uint64 { return r.stats.HangDrops }, nicL, qL)
			reg.CounterFunc("nic_rx_stall_drops_total", func() uint64 { return r.stats.StallDrops }, nicL, qL)
			reg.CounterFunc("nic_rx_corrupt_total", func() uint64 { return r.stats.CorruptRx }, nicL, qL)
		}
	}
	if n.faults != nil {
		reg.CounterFunc("nic_link_drops_total", func() uint64 { return n.linkDrops }, nicL)
	}
	for _, t := range n.tx {
		t := t
		qL := metrics.L("queue", strconv.Itoa(t.id))
		reg.CounterFunc("nic_tx_sent_total", func() uint64 { return t.stats.Sent }, nicL, qL)
		reg.CounterFunc("nic_tx_bytes_total", func() uint64 { return t.stats.Bytes }, nicL, qL)
		reg.CounterFunc("nic_tx_ring_full_total", func() uint64 { return t.stats.RingFull }, nicL, qL)
		reg.GaugeFunc("nic_tx_queued", func() int64 { return int64(len(t.queue)) }, nicL, qL)
	}
}

// Metrics returns the registry the NIC exports into; capture engines
// built on this NIC register their own series here, so one experiment's
// whole stack lands in one snapshot.
func (n *NIC) Metrics() *metrics.Registry { return n.metrics }

// Faults returns the run's fault injector (nil on a well-behaved NIC).
// Engines read it here so fault wiring needs no constructor changes.
func (n *NIC) Faults() *faults.Injector { return n.faults }

// Steering returns the NIC's traffic-steering mechanism. Recovery code
// uses it to rewrite flow placement when quarantining a dead queue.
func (n *NIC) Steering() Steering { return n.steering }

// Trace returns the run's flight recorder (nil when tracing is off).
// Engines and the capture core read it here, the same way they read
// Faults.
func (n *NIC) Trace() *obs.Recorder { return n.trace }

// ID returns the NIC's identifier.
func (n *NIC) ID() int { return n.cfg.ID }

// RxQueues returns the number of receive queues.
func (n *NIC) RxQueues() int { return len(n.rx) }

// Rx returns receive queue q's ring.
func (n *NIC) Rx(q int) *RxRing { return n.rx[q] }

// TxQueues returns the number of transmit queues.
func (n *NIC) TxQueues() int { return len(n.tx) }

// Tx returns transmit queue q's ring.
func (n *NIC) Tx(q int) *TxRing { return n.tx[q] }

// RingSize returns the per-queue receive ring size actually configured.
func (n *NIC) RingSize() int { return n.cfg.RingSize }

// LineRateBps returns the configured wire speed.
func (n *NIC) LineRateBps() float64 { return n.cfg.LineRateBps }

// Deliver offers one frame from the wire at virtual time ts. It applies
// the MAC filter, classifies the frame onto a receive queue, charges the
// bus, and DMA-writes into the queue's ring. The return value reports
// whether the frame reached host memory.
//
//wirecap:hotpath
func (n *NIC) Deliver(frame []byte, ts vtime.Time) bool {
	n.delivered++
	if !n.faults.LinkUp(n.cfg.ID) {
		n.linkDrops++
		n.trace.DropN(obs.DropLink, n.cfg.ID, -1, 1, ts)
		return false
	}
	if !n.cfg.Promiscuous {
		var dst packet.MAC
		if len(frame) < packet.EthernetHeaderLen {
			n.filtered++
			n.trace.DropN(obs.DropFiltered, n.cfg.ID, -1, 1, ts)
			return false
		}
		copy(dst[:], frame[0:6])
		if dst != n.cfg.MAC && dst != (packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) {
			n.filtered++
			n.trace.DropN(obs.DropFiltered, n.cfg.ID, -1, 1, ts)
			return false
		}
	}
	q := 0
	if err := packet.Decode(frame, &n.dec); err == nil {
		if sq, ok := n.steering.Queue(&n.dec); ok {
			q = sq
		} else {
			n.undecoded++
		}
	} else {
		n.undecoded++
	}
	if q < 0 || q >= len(n.rx) {
		panic(fmt.Sprintf("nic: steering selected queue %d of %d", q, len(n.rx)))
	}
	n.trace.PktArrive(n.cfg.ID, q, n.dec.Flow, len(frame), ts)
	ring := n.rx[q]
	if n.faults.QueueHung(n.cfg.ID, q) {
		ring.stats.HangDrops++
		n.trace.PendingDrop(obs.DropQueueHang, n.cfg.ID, q, ts)
		return false
	}
	if n.faults.DescStalled(n.cfg.ID, q) {
		ring.stats.StallDrops++
		n.trace.PendingDrop(obs.DropDescStall, n.cfg.ID, q, ts)
		return false
	}
	if !n.bus.TryTransfer(ts, len(frame), ring.busOverhead) {
		ring.stats.BusDrops++
		n.trace.PendingDrop(obs.DropBus, n.cfg.ID, q, ts)
		return false
	}
	corrupt := n.faults.CorruptFrame(n.cfg.ID, q, frame)
	return ring.dmaWrite(frame, ts, corrupt)
}

// Stats snapshots all counters.
func (n *NIC) Stats() Stats {
	s := Stats{
		Delivered: n.delivered,
		Filtered:  n.filtered,
		Undecoded: n.undecoded,
		LinkDrops: n.linkDrops,
	}
	for _, r := range n.rx {
		s.Rx = append(s.Rx, r.Stats())
	}
	for _, t := range n.tx {
		s.Tx = append(s.Tx, t.Stats())
	}
	return s
}

// WireInterval returns the minimum inter-frame interval for frames of the
// given length at the NIC's line rate (14.88 Mp/s for 64-byte frames at
// 10 GbE).
func (n *NIC) WireInterval(frameLen int) vtime.Time {
	return WireInterval(n.cfg.LineRateBps, frameLen)
}

// WireInterval returns the serialization interval of a frame (including
// preamble, FCS, and inter-frame gap) at the given line rate.
func WireInterval(lineRateBps float64, frameLen int) vtime.Time {
	// frameLen excludes the 4-byte FCS in this simulator's convention;
	// wireOverhead accounts for preamble+FCS+IFG.
	bits := float64(frameLen+wireOverhead) * 8
	return vtime.Time(bits / lineRateBps * float64(vtime.Second))
}
