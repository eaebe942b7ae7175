// Package app implements the paper's experiment applications (§2.2) as
// engine-agnostic packet consumers: pkt_handler (capture, apply a BPF
// filter x times, optionally forward), queue_profiler (count packets per
// 10 ms bin per queue), and their multi-threaded composition. They plug
// into any capture engine through the engines.Handler interface.
package app

import (
	"fmt"

	"repro/internal/bpf"
	"repro/internal/engines"
	"repro/internal/nic"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// PktHandler is the paper's pkt_handler: for every captured packet it
// applies a BPF filter X times before discarding (or forwarding) it. The
// filter really executes (once — the remaining X-1 applications are
// charged in virtual time, since they are pure repetition by
// construction).
type PktHandler struct {
	// X is the number of filter applications per packet; 0 models no
	// processing load, 300 models a heavy application like snort.
	X int
	// Costs prices the work.
	Costs engines.CostModel
	// ForwardTx, when non-nil, returns the transmit ring on which queue
	// q's processed packets are forwarded (the Figure 13 middlebox).
	ForwardTx func(q int) *nic.TxRing
	// Clock, when non-nil, enables delivery-latency accounting: the
	// difference between a packet's hardware arrival timestamp and the
	// moment the application processes it.
	Clock *vtime.Scheduler

	flt *bpf.FlatProgram

	// Counters.
	Processed uint64
	Matched   uint64
	Bytes     uint64
	TxDropped uint64 // forwarded packets rejected by a full TX ring
	PerQueue  []uint64
	// DelaySum accumulates capture-to-processing latency when Clock is
	// set; DelaySum / Processed is the mean delivery delay. DelayHist
	// holds the full distribution for percentile reporting.
	DelaySum  vtime.Time
	MaxDelay  vtime.Time
	DelayHist stats.Histogram
}

// NewPktHandler builds the handler with the paper's filter
// ("131.225.2 and udp") compiled for real; x is the per-packet filter
// application count.
func NewPktHandler(x int, costs engines.CostModel, queues int) *PktHandler {
	h, err := NewPktHandlerFilter(x, costs, queues, "131.225.2 and udp")
	if err != nil {
		panic(err) // the constant filter always compiles
	}
	return h
}

// NewPktHandlerFilter builds a pkt_handler with a custom filter
// expression.
func NewPktHandlerFilter(x int, costs engines.CostModel, queues int, filter string) (*PktHandler, error) {
	flt, err := bpf.CompileFlat(filter, 65535)
	if err != nil {
		return nil, fmt.Errorf("app: compiling filter %q: %w", filter, err)
	}
	return &PktHandler{X: x, Costs: costs, flt: flt, PerQueue: make([]uint64, queues)}, nil
}

// Cost implements engines.Handler.
func (h *PktHandler) Cost(q int, data []byte) vtime.Time {
	c := h.Costs.HandlerCost(h.X)
	if h.ForwardTx != nil {
		c += h.Costs.TxAttach
	}
	return c
}

// Handle implements engines.Handler.
func (h *PktHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	h.Processed++
	h.Bytes += uint64(len(data))
	if h.Clock != nil {
		d := h.Clock.Now() - ts
		h.DelaySum += d
		if d > h.MaxDelay {
			h.MaxDelay = d
		}
		h.DelayHist.Record(int64(d))
	}
	if q >= 0 && q < len(h.PerQueue) {
		h.PerQueue[q]++
	}
	if h.flt.Match(data) {
		h.Matched++
	}
	if h.ForwardTx != nil {
		tx := h.ForwardTx(q)
		if tx != nil && tx.Attach(nic.TxPacket{Data: data, Release: done}) {
			return // done runs when the packet leaves the wire
		}
		h.TxDropped++
	}
	done()
}

// QueueProfiler is the paper's queue_profiler: a per-queue time series of
// packet counts in 10 ms bins, used to visualize load imbalance
// (Figure 3). Profiling itself is modeled as free (the real tool does
// nothing but count).
type QueueProfiler struct {
	BinLen vtime.Time
	bins   [][]uint64 // [queue][bin]
}

// NewQueueProfiler profiles the given number of queues in 10 ms bins.
func NewQueueProfiler(queues int) *QueueProfiler {
	p := &QueueProfiler{BinLen: 10 * vtime.Millisecond}
	p.bins = make([][]uint64, queues)
	return p
}

// Cost implements engines.Handler.
func (p *QueueProfiler) Cost(int, []byte) vtime.Time { return vtime.Nanosecond }

// Handle implements engines.Handler.
func (p *QueueProfiler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	bin := int(ts / p.BinLen)
	for len(p.bins[q]) <= bin {
		p.bins[q] = append(p.bins[q], 0)
	}
	p.bins[q][bin]++
	done()
}

// Series returns queue q's packets-per-bin time series.
func (p *QueueProfiler) Series(q int) []uint64 { return p.bins[q] }

// Total returns the packets counted on queue q.
func (p *QueueProfiler) Total(q int) uint64 {
	var n uint64
	for _, v := range p.bins[q] {
		n += v
	}
	return n
}

// Peak returns the largest bin observed on queue q.
func (p *QueueProfiler) Peak(q int) uint64 {
	var m uint64
	for _, v := range p.bins[q] {
		if v > m {
			m = v
		}
	}
	return m
}
