package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// FermilabNet is the 131.225.0.0/16 source network the paper's trace and
// BPF filter ("131.225.2 and udp") refer to.
const FermilabNet = 0x83E10000

// FermilabSubnet2 is 131.225.2.0/24, the exact prefix the paper's filter
// matches.
const FermilabSubnet2 = 0x83E10200

// ConstantRateConfig configures a fixed-rate generator, the paper's
// "traffic generator transmits P 64-Byte packets at the wire rate".
type ConstantRateConfig struct {
	// Packets is P, the number of frames to send.
	Packets uint64
	// FrameLen is the frame length excluding FCS; 60 here is what the
	// paper calls a "64-byte packet". Default 60.
	FrameLen int
	// LineRateBps sets the wire speed packets are paced at. Default 10G.
	LineRateBps float64
	// Queues spreads flows evenly over the receive queues of an n-queue
	// RSS NIC; 1 directs everything at queue 0. Default 1.
	Queues int
	// SingleQueue aims every flow at TargetQueue of a Queues-queue NIC
	// instead of spreading, to construct worst-case long-term imbalance
	// ("a single core flooded with all the network traffic").
	SingleQueue bool
	TargetQueue int
	// FlowsPerQueue is the number of distinct flows aimed at each queue.
	// Default 16.
	FlowsPerQueue int
	// Proto is the transport protocol. Default UDP.
	Proto uint8
	// Start is the virtual time of the first frame.
	Start vtime.Time
	// Seed seeds flow generation.
	Seed uint64
}

// ConstantRateSource emits back-to-back frames at wire speed.
type ConstantRateSource struct {
	frames   [][]byte
	interval vtime.Time
	next     vtime.Time
	sent     uint64
	total    uint64
	idx      int
}

// NewConstantRate builds the generator; frames are synthesized once and
// replayed round-robin over the flow set.
func NewConstantRate(cfg ConstantRateConfig) *ConstantRateSource {
	if cfg.FrameLen == 0 {
		cfg.FrameLen = 60
	}
	if cfg.FrameLen < packet.MinFrameLen || cfg.FrameLen > packet.MaxFrameLen {
		panic(fmt.Sprintf("trace: frame length %d out of range", cfg.FrameLen))
	}
	if cfg.LineRateBps == 0 {
		cfg.LineRateBps = nic.LineRate10G
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.FlowsPerQueue <= 0 {
		cfg.FlowsPerQueue = 16
	}
	if cfg.Proto == 0 {
		cfg.Proto = packet.ProtoUDP
	}
	r := vtime.NewRand(cfg.Seed + 1)
	b := packet.NewBuilder()
	payload := cfg.FrameLen - packet.EthernetHeaderLen - packet.IPv4HeaderLen - packet.UDPHeaderLen
	if cfg.Proto == packet.ProtoTCP {
		payload = cfg.FrameLen - packet.EthernetHeaderLen - packet.IPv4HeaderLen - packet.TCPHeaderLen
	}
	if payload < 0 {
		payload = 0
	}
	s := &ConstantRateSource{
		interval: nic.WireInterval(cfg.LineRateBps, cfg.FrameLen),
		next:     cfg.Start,
		total:    cfg.Packets,
	}
	// Interleave flows across queues (q0f0, q1f0, ..., q0f1, ...) so that
	// round-robin emission loads every queue evenly even when the packet
	// count is not a multiple of the flow count.
	for i := 0; i < cfg.FlowsPerQueue; i++ {
		for q := 0; q < cfg.Queues; q++ {
			target := q
			if cfg.SingleQueue {
				target = cfg.TargetQueue
			}
			flow := FlowForQueue(r, cfg.Queues, target, cfg.Proto, FermilabSubnet2, 8)
			buf := make([]byte, packet.MaxFrameLen)
			frame := b.Build(buf, flow, make([]byte, payload))
			if len(frame) != cfg.FrameLen {
				panic(fmt.Sprintf("trace: built %d-byte frame, want %d", len(frame), cfg.FrameLen))
			}
			s.frames = append(s.frames, frame)
		}
	}
	return s
}

// Next implements Source.
func (s *ConstantRateSource) Next() ([]byte, vtime.Time, bool) {
	if s.sent >= s.total {
		return nil, 0, false
	}
	frame := s.frames[s.idx]
	s.idx = (s.idx + 1) % len(s.frames)
	ts := s.next
	s.next += s.interval
	s.sent++
	return frame, ts, true
}

// BorderConfig configures the synthetic Fermilab border-router workload.
// The defaults reproduce the traffic shape of the paper's Figure 3: with
// six RSS queues, queue 0 sustains roughly 80 kp/s from t=10 s on (a
// long-term overload for a 38.8 kp/s processing thread), queue 3 carries
// roughly 20 kp/s with short-term bursts of hundreds of packets per 10 ms
// bin, and the remaining queues see light background traffic.
type BorderConfig struct {
	// Queues is the RSS queue count the load is shaped for. Default 6.
	Queues int
	// Duration of the trace. Default 32 s.
	Duration vtime.Time
	// Scale multiplies every packet rate; use < 1 for fast tests.
	// Default 1.0 (about 4.5 M packets).
	Scale float64
	// HotQueue is the long-term-overloaded queue (paper: queue 0).
	HotQueue int
	// WarmQueue is the bursty moderate queue (paper: queue 3). Set equal
	// to HotQueue to disable.
	WarmQueue int
	// Seed makes the workload reproducible.
	Seed uint64
}

func (c *BorderConfig) setDefaults() {
	if c.Queues <= 0 {
		c.Queues = 6
	}
	if c.Duration == 0 {
		c.Duration = 32 * vtime.Second
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.WarmQueue == 0 && c.HotQueue == 0 {
		c.WarmQueue = 3
	}
	if c.HotQueue >= c.Queues {
		c.HotQueue = 0
	}
	if c.WarmQueue >= c.Queues {
		c.WarmQueue = c.Queues - 1
	}
}

// binLen is the profiling bin the paper uses (10 ms).
const binLen = 10 * vtime.Millisecond

// borderFlow is one synthetic flow; TCP flows carry session state so the
// emitted segments have realistic flags and sequence numbers.
type borderFlow struct {
	flow packet.FlowKey
	seq  uint32
	open bool
}

// BorderSource generates the border-router workload bin by bin: when a
// bin runs out it plans the next 10 ms of arrivals (per-queue Poisson
// counts, bursts, clusters), sorts them by timestamp, and then builds
// one frame per Next call into a single reused scratch buffer. The
// returned frame is valid until the next call. Payloads are zero bytes;
// TCP flows carry SYN/data/FIN session state. The stream is a pure
// function of the config.
type BorderSource struct {
	cfg   BorderConfig
	r     *vtime.Rand
	b     *packet.Builder
	flows [][]borderFlow // per queue

	bin     int
	bins    int
	pending []pendingPkt
	pi      int
	scratch []byte
	zeros   []byte       // shared all-zero payload
	starts  []vtime.Time // per-bin cluster scratch, reused across bins
	emitted uint64
}

// pendingPkt is one planned arrival of the current bin. It is 16 bytes
// so the per-bin sort moves little per swap; queue, flow index and frame
// size all fit 16 bits (at most 6 queues by default, 48 flows per queue,
// 1514-byte frames).
type pendingPkt struct {
	ts    vtime.Time
	queue uint16
	flow  uint16
	size  uint16
}

// NewBorder builds the workload generator.
func NewBorder(cfg BorderConfig) *BorderSource {
	cfg.setDefaults()
	if cfg.Queues > math.MaxUint16 {
		panic(fmt.Sprintf("trace: %d queues exceed the border generator's 16-bit queue index", cfg.Queues))
	}
	s := &BorderSource{
		cfg:     cfg,
		r:       vtime.NewRand(cfg.Seed + 2),
		b:       packet.NewBuilder(),
		bins:    int(cfg.Duration / binLen),
		scratch: make([]byte, packet.MaxFrameLen),
		zeros:   make([]byte, packet.MaxFrameLen),
	}
	// Flow pools: a mix of TCP (dominant, as in the paper's observation
	// that TCP dominates) and UDP, with half the sources inside
	// 131.225.2.0/24 so the paper's filter has work to do.
	const flowsPerQueue = 48
	for q := 0; q < cfg.Queues; q++ {
		var pool []borderFlow
		for i := 0; i < flowsPerQueue; i++ {
			proto := packet.ProtoTCP
			if i%3 == 2 {
				proto = packet.ProtoUDP
			}
			srcNet := uint32(FermilabNet)
			hostBits := 16
			if i%2 == 0 {
				srcNet = FermilabSubnet2
				hostBits = 8
			}
			pool = append(pool, borderFlow{flow: FlowForQueue(s.r, cfg.Queues, q, proto, srcNet, hostBits)})
		}
		s.flows = append(s.flows, pool)
	}
	return s
}

// rateAt returns queue q's base rate in packets/second at time t,
// following the Figure 3 profile. The profile breakpoints (the hot
// queue's ramp at t=10 s of 32 s, the warm queue's start at t=1 s) scale
// with the configured duration, so a time-compressed trace keeps the
// paper's rates — and therefore its overload dynamics — intact.
func (s *BorderSource) rateAt(q int, t vtime.Time) float64 {
	hotRamp := s.cfg.Duration * 10 / 32
	warmStart := s.cfg.Duration * 1 / 32
	switch q {
	case s.cfg.HotQueue:
		if t >= hotRamp {
			return 80000
		}
		return 15000
	case s.cfg.WarmQueue:
		if t >= warmStart {
			return 20000
		}
		return 2000
	default:
		return 8000
	}
}

// poisson draws a Poisson variate with mean lambda (normal approximation
// for large means).
func poisson(r *vtime.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(lambda + math.Sqrt(lambda)*r.NormFloat64() + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// frameSize draws from a trimodal size mix (IMIX-like).
func (s *BorderSource) frameSize() int {
	switch s.r.Intn(4) {
	case 0, 1:
		return 60
	case 2:
		return 576
	default:
		return 1514
	}
}

// synthesize fills s.pending with the packets of bin b in generation
// order and rewinds the read position; sortPending puts them in time
// order.
func (s *BorderSource) synthesize(b int) {
	s.pending = s.pending[:0]
	t0 := vtime.Time(b) * binLen
	for q := 0; q < s.cfg.Queues; q++ {
		lambda := s.rateAt(q, t0) * binLen.Seconds() * s.cfg.Scale
		count := poisson(s.r, lambda)
		// Short-term bursts: occasionally a queue takes a dense packet
		// train within one bin, as Figure 3's 2,000+ packet spikes show.
		burstProb, burstMin := 0.01, 300.0
		switch q {
		case s.cfg.WarmQueue:
			burstProb, burstMin = 0.06, 700.0
		case s.cfg.HotQueue:
			// Figure 3 shows the hot queue spiking past 2,000 packets per
			// bin on top of its sustained load.
			burstProb, burstMin = 0.08, 1000.0
		}
		if s.r.Float64() < burstProb {
			burst := int(s.r.Pareto(1.2, burstMin) * s.cfg.Scale)
			if max := int(2400 * s.cfg.Scale); burst > max {
				burst = max
			}
			count += burst
		}
		// Cluster the packets: pick a handful of cluster start times and
		// pack packets at near-wire spacing inside each cluster, which
		// gives the bursty sub-bin structure real traffic has.
		nClusters := 1 + count/64
		if cap(s.starts) < nClusters {
			s.starts = make([]vtime.Time, nClusters)
		}
		starts := s.starts[:nClusters]
		for c := range starts {
			starts[c] = t0 + vtime.Time(s.r.Intn(int(binLen)*9/10))
		}
		for i := 0; i < count; i++ {
			start := starts[s.r.Intn(nClusters)]
			off := vtime.Time(i%64) * 70 * vtime.Nanosecond
			ts := start + off
			if ts >= t0+binLen {
				ts = t0 + binLen - 1
			}
			// pickFlow draws from the RNG before frameSize: the field
			// order here is the draw order.
			s.pending = append(s.pending, pendingPkt{
				ts:    ts,
				queue: uint16(q),
				flow:  uint16(s.pickFlow(q)),
				size:  uint16(s.frameSize()),
			})
		}
	}
	s.pi = 0
}

// sortPending orders a bin's arrivals by timestamp. Ties are common
// (packets i and i+64 of a cluster, and packets clamped to the bin's
// end), and their order is part of the emitted stream that every digest
// downstream covers. slices.SortFunc is the same unstable pdqsort as
// sort.Slice, making the same comparisons, so it leaves ties where
// sort.Slice does (TestSortPendingMatchesSortSlice) without the
// reflect-based swapper. A stable sort would reorder them.
func sortPending(p []pendingPkt) {
	slices.SortFunc(p, func(a, b pendingPkt) int { return cmp.Compare(a.ts, b.ts) })
}

// pickFlow skews selection toward the head of the pool (elephant flows).
func (s *BorderSource) pickFlow(q int) int {
	u := s.r.Float64()
	return int(u * u * float64(len(s.flows[q])))
}

// Next implements Source.
func (s *BorderSource) Next() ([]byte, vtime.Time, bool) {
	for s.pi >= len(s.pending) {
		if s.bin >= s.bins {
			return nil, 0, false
		}
		s.synthesize(s.bin)
		sortPending(s.pending)
		s.bin++
	}
	p := s.pending[s.pi]
	s.pi++
	fl := &s.flows[p.queue][p.flow]
	hdr := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
	if fl.flow.Proto == packet.ProtoTCP {
		hdr = packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen
	}
	payload := int(p.size) - hdr
	if payload < 0 {
		payload = 0
	}
	var frame []byte
	if fl.flow.Proto == packet.ProtoTCP {
		// Stateful session: SYN on open, PSH|ACK data with advancing
		// sequence numbers, an occasional FIN closing the session (the
		// next packet of the flow reopens it with a fresh SYN).
		switch {
		case !fl.open:
			fl.open = true
			fl.seq = s.r.Uint32()
			frame = s.b.BuildTCPSeg(s.scratch, fl.flow, fl.seq, packet.TCPSyn, nil)
			fl.seq++
		case s.r.Intn(512) == 0:
			frame = s.b.BuildTCPSeg(s.scratch, fl.flow, fl.seq, packet.TCPFin|packet.TCPAck, nil)
			fl.open = false
		default:
			frame = s.b.BuildTCPSeg(s.scratch, fl.flow, fl.seq,
				packet.TCPPsh|packet.TCPAck, s.zeros[:payload])
			fl.seq += uint32(payload)
		}
	} else {
		frame = s.b.Build(s.scratch, fl.flow, s.zeros[:payload])
	}
	s.emitted++
	return frame, p.ts, true
}

// Emitted returns the number of packets generated so far.
func (s *BorderSource) Emitted() uint64 { return s.emitted }
