package core

import (
	"testing"

	"repro/internal/engines"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// jitterHandler randomly defers a fraction of done callbacks (simulating
// forwarding latency) and releases them later, with variable per-packet
// cost — a fault-injection consumer.
type jitterHandler struct {
	r         *vtime.Rand
	sched     *vtime.Scheduler
	processed uint64
	pending   int
}

func (h *jitterHandler) Cost(int, []byte) vtime.Time {
	return vtime.Time(100 + h.r.Intn(30000)) // 0.1-30 us
}

func (h *jitterHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	h.processed++
	if h.r.Intn(4) == 0 {
		// Hold the buffer for a while, like a slow TX drain.
		h.pending++
		h.sched.After(vtime.Time(h.r.Intn(int(2*vtime.Millisecond))), func() {
			h.pending--
			done()
		})
		return
	}
	done()
}

// burstSource emits random ON/OFF bursts at wire rate.
type burstSource struct {
	r       *vtime.Rand
	b       *packet.Builder
	flows   []packet.FlowKey
	scratch []byte
	now     vtime.Time
	left    int
	total   int
	sent    int
}

func newBurstSource(seed uint64, total int, queues int) *burstSource {
	r := vtime.NewRand(seed)
	s := &burstSource{
		r: r, b: packet.NewBuilder(), total: total,
		scratch: make([]byte, packet.MaxFrameLen),
	}
	for q := 0; q < queues; q++ {
		for i := 0; i < 4; i++ {
			s.flows = append(s.flows, trace.FlowForQueue(r, queues, q, packet.ProtoUDP, trace.FermilabSubnet2, 8))
		}
	}
	return s
}

func (s *burstSource) Next() ([]byte, vtime.Time, bool) {
	if s.sent >= s.total {
		return nil, 0, false
	}
	if s.left == 0 {
		// New burst after an OFF gap.
		s.left = 1 + s.r.Intn(3000)
		s.now += vtime.Time(s.r.Intn(int(5 * vtime.Millisecond)))
	}
	s.left--
	s.sent++
	s.now += 68 * vtime.Nanosecond // ~wire rate within a burst
	flow := s.flows[s.r.Intn(len(s.flows))]
	frame := s.b.Build(s.scratch, flow, s.scratch[:s.r.Intn(200)])
	return frame, s.now, true
}

// TestRandomBurstConservation drives randomized bursty traffic through
// WireCAP with a fault-injecting consumer across many seeds and checks
// the conservation and pool invariants after every run:
//
//	sent == received + capture drops, received == processed,
//	all chunks recycled, no references leaked.
func TestRandomBurstConservation(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, mode := range []Mode{Basic, Advanced} {
			sched := vtime.NewScheduler()
			queues := 2 + int(seed%3)
			n := nic.New(sched, nic.Config{ID: 0, RxQueues: queues, RingSize: 512, Promiscuous: true})
			h := &jitterHandler{r: vtime.NewRand(seed * 7), sched: sched}
			e, err := New(sched, n, Config{
				M: 32 + 32*int(seed%3), R: 40, Mode: mode,
				FlushTimeout: vtime.Millisecond,
				Costs:        engines.DefaultCosts(),
				Seed:         seed,
			}, h)
			if err != nil {
				t.Fatal(err)
			}
			src := newBurstSource(seed, 30_000, queues)
			st := trace.Drive(sched, n, src, nil)
			sched.Run()

			tot := e.Stats().Totals()
			if tot.Received+tot.CaptureDrops != st.Sent {
				t.Fatalf("seed %d %v: received %d + drops %d != sent %d",
					seed, mode, tot.Received, tot.CaptureDrops, st.Sent)
			}
			if h.processed != tot.Received {
				t.Fatalf("seed %d %v: processed %d != received %d",
					seed, mode, h.processed, tot.Received)
			}
			if h.pending != 0 {
				t.Fatalf("seed %d %v: %d deferred releases never ran", seed, mode, h.pending)
			}
			for q := 0; q < queues; q++ {
				if err := e.queues[q].pool.CheckInvariants(); err != nil {
					t.Fatalf("seed %d %v queue %d: %v", seed, mode, q, err)
				}
				ps := e.queues[q].pool.Stats()
				if ps.RecycleRejected != 0 {
					t.Fatalf("seed %d %v: kernel rejected %d recycles", seed, mode, ps.RecycleRejected)
				}
			}
		}
	}
}
