package nic

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/vtime"
)

// DescState is the state of a receive descriptor.
type DescState uint8

// Descriptor states. A descriptor receives a packet only in DescReady; a
// filled descriptor is DescUsed until the owning engine reinitializes it.
// DescEmpty descriptors (no buffer attached) cannot receive and arriving
// packets drop — the capture-drop mechanism of §2.1.
const (
	DescEmpty DescState = iota
	DescReady
	DescUsed
)

func (s DescState) String() string {
	switch s {
	case DescEmpty:
		return "empty"
	case DescReady:
		return "ready"
	case DescUsed:
		return "used"
	default:
		return fmt.Sprintf("DescState(%d)", s)
	}
}

// Desc is one receive descriptor: a pointer to a host buffer plus the
// received length and hardware timestamp after DMA fills it. Err is the
// hardware integrity-error bit: set when the DMA write corrupted the
// frame (the simulated bad checksum), cleared on refill/invalidate.
type Desc struct {
	State DescState
	Buf   []byte
	Len   int
	TS    vtime.Time
	Err   bool
}

// RxStats counts per-queue receive activity. Every lost packet lands in
// exactly one drop counter, so Drops() is an exact partition.
type RxStats struct {
	Received   uint64 // packets DMA'd into host memory
	Bytes      uint64 // frame bytes received
	WireDrops  uint64 // packets dropped: no ready descriptor
	BusDrops   uint64 // packets dropped: bus budget exhausted
	HangDrops  uint64 // packets dropped: queue hung (fault injection)
	StallDrops uint64 // packets dropped: descriptor write-back stalled
	CorruptRx  uint64 // packets received with the integrity-error bit set
}

// Drops returns all packets lost before reaching host memory. CorruptRx
// frames did reach memory (damaged) and are not drops at this layer.
func (s RxStats) Drops() uint64 {
	return s.WireDrops + s.BusDrops + s.HangDrops + s.StallDrops
}

// RxRing is one receive queue's descriptor ring. The NIC's DMA engine
// fills descriptors strictly in order; the owning capture engine is
// responsible for returning used descriptors to the ready state (each
// engine does so differently, which is the heart of the paper).
type RxRing struct {
	nicID, id int
	desc      []Desc
	fill      int // index the next arriving packet will use
	stats     RxStats

	// onRx, set by the capture engine, runs after each successful DMA
	// write with the index of the filled descriptor.
	onRx func(i int)

	// busOverhead is extra bus traffic charged per received packet beyond
	// the frame itself: descriptor writebacks, doorbells, and (for
	// WireCAP) chunk-metadata I/O. Engines set it to model their I/O
	// footprint in the Figure 14 scalability experiment.
	busOverhead int

	// trace is the run's flight recorder (nil when tracing is off).
	trace *obs.Recorder
}

func newRxRing(nicID, id, n int) *RxRing {
	if n <= 0 {
		panic(fmt.Sprintf("nic: ring size %d", n))
	}
	return &RxRing{nicID: nicID, id: id, desc: make([]Desc, n)}
}

// Size returns the number of descriptors.
func (r *RxRing) Size() int { return len(r.desc) }

// Desc returns descriptor i for engine inspection and refill.
func (r *RxRing) Desc(i int) *Desc { return &r.desc[i] }

// Stats returns the ring's counters.
func (r *RxRing) Stats() RxStats { return r.stats }

// OnRx registers the engine callback invoked after each DMA write.
func (r *RxRing) OnRx(fn func(i int)) { r.onRx = fn }

// SetBusOverhead sets the engine's extra per-packet bus traffic in bytes.
func (r *RxRing) SetBusOverhead(bytes int) {
	if bytes < 0 {
		bytes = 0
	}
	r.busOverhead = bytes
}

// Refill arms descriptor i with an empty buffer (-> ready).
//
//wirecap:hotpath
func (r *RxRing) Refill(i int, buf []byte) {
	if len(buf) == 0 {
		panic("nic: Refill with empty buffer")
	}
	d := &r.desc[i]
	d.State = DescReady
	d.Buf = buf
	d.Len = 0
	d.Err = false
}

// Invalidate detaches descriptor i's buffer (-> empty).
func (r *RxRing) Invalidate(i int) {
	d := &r.desc[i]
	d.State = DescEmpty
	d.Buf = nil
	d.Len = 0
	d.Err = false
}

// ReadyCount returns the number of descriptors able to receive, i.e. the
// ring's instantaneous buffering headroom.
func (r *RxRing) ReadyCount() int {
	n := 0
	for i := range r.desc {
		if r.desc[i].State == DescReady {
			n++
		}
	}
	return n
}

// dmaWrite delivers one frame into the ring. It returns false (a wire
// drop) when the next descriptor is not ready — descriptors are consumed
// strictly in order, like hardware. corrupt marks the descriptor's
// integrity-error bit (the frame bytes were already damaged in place by
// the fault injector before the copy).
//
//wirecap:hotpath
func (r *RxRing) dmaWrite(frame []byte, ts vtime.Time, corrupt bool) bool {
	d := &r.desc[r.fill]
	if d.State != DescReady {
		r.stats.WireDrops++
		r.trace.PendingDrop(obs.DropDescDepletion, r.nicID, r.id, ts)
		return false
	}
	if len(frame) > len(d.Buf) {
		// Oversized for the buffer: hardware would split across
		// descriptors; the simulator's cells always fit a full frame, so
		// treat this as a configuration bug.
		panic(fmt.Sprintf("nic: frame %d bytes exceeds %d-byte ring buffer", len(frame), len(d.Buf)))
	}
	copy(d.Buf, frame)
	d.Len = len(frame)
	d.TS = ts
	d.State = DescUsed
	d.Err = corrupt
	idx := r.fill
	r.fill = (r.fill + 1) % len(r.desc)
	r.stats.Received++
	r.stats.Bytes += uint64(len(frame))
	if corrupt {
		r.stats.CorruptRx++
	}
	r.trace.PktDMA(r.nicID, r.id, idx, ts)
	if r.onRx != nil {
		r.onRx(idx)
	}
	return true
}

// TxPacket is a packet attached to a transmit ring by reference: Data is
// not copied, and Release (if non-nil) runs once the NIC has serialized
// the packet onto the wire, returning the underlying buffer to its owner.
type TxPacket struct {
	Data    []byte
	Release func()
}

// TxStats counts per-queue transmit activity.
type TxStats struct {
	Sent     uint64
	Bytes    uint64
	RingFull uint64 // attach attempts rejected because the ring was full
}

// TxRing is one transmit queue. Attached packets drain in FIFO order at
// the configured line rate.
type TxRing struct {
	id    int
	sched *vtime.Scheduler
	cap   int
	queue []TxPacket
	stats TxStats

	bytesPerSec float64
	draining    bool
	drainFn     func() // bound once; scheduling it per frame allocates nothing
}

// Ethernet on-wire overhead per frame: preamble (8) + FCS (4) + minimum
// inter-frame gap (12).
const wireOverhead = 24

func newTxRing(id, capacity int, sched *vtime.Scheduler, bytesPerSec float64) *TxRing {
	t := &TxRing{id: id, sched: sched, cap: capacity, bytesPerSec: bytesPerSec}
	t.drainFn = t.drainOne
	return t
}

// Stats returns the ring's counters.
func (t *TxRing) Stats() TxStats { return t.stats }

// Attach enqueues a packet for transmission by reference (zero-copy). It
// returns false when the ring is full; the caller keeps ownership then.
func (t *TxRing) Attach(p TxPacket) bool {
	if len(t.queue) >= t.cap {
		t.stats.RingFull++
		return false
	}
	t.queue = append(t.queue, p)
	if !t.draining {
		t.draining = true
		t.sched.After(t.serialization(len(p.Data)), t.drainFn)
	}
	return true
}

func (t *TxRing) serialization(frameLen int) vtime.Time {
	return vtime.Time(float64(frameLen+wireOverhead) / t.bytesPerSec * float64(vtime.Second))
}

//wirecap:hotpath
func (t *TxRing) drainOne() {
	p := t.queue[0]
	copy(t.queue, t.queue[1:])
	t.queue = t.queue[:len(t.queue)-1]
	t.stats.Sent++
	t.stats.Bytes += uint64(len(p.Data))
	if p.Release != nil {
		p.Release()
	}
	if len(t.queue) > 0 {
		t.sched.After(t.serialization(len(t.queue[0].Data)), t.drainFn)
	} else {
		t.draining = false
	}
}
