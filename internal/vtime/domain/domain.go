// Package domain is the simulator's mailbox executive: one
// vtime.Scheduler plus a canonical heap of in-flight messages, so that
// separately built actors (the fleet's hosts and its aggregator) can talk
// through fixed-latency links while the whole simulation stays exactly
// as deterministic as a single scheduler.
//
//   - Actors interact through mailbox messages sent via a Tx (a stable
//     sending endpoint) to a Port (a stable receiving endpoint). A port
//     declares a delivery latency >= 1 ns; a message sent at virtual
//     time t is delivered at exactly t+latency.
//   - Deliveries run in a canonical order that depends only on stable
//     identities: (deliver-at, port id, tx id, per-tx sequence), with
//     all deliveries at a timestamp running before any scheduler event
//     at that timestamp. Port and tx ids are assigned in creation order,
//     which the simulation's construction fixes.
//   - Hot-path batching (vtime.Scheduler.AdvanceIfIdle) stays safe
//     because the scheduler's horizon always tracks the next pending
//     delivery, so a batching event can never skip past a message.
//
// The package also owns ForEach, the process-wide worker pool that fans
// independent experiment runs out over the machine's cores.
package domain

import (
	"fmt"

	"repro/internal/vtime"
)

// Config sizes a Sim.
type Config struct {
	// Domains must be 0 or 1: the executive is sequential and has exactly
	// one domain. The field exists only so that cmd/wirebench, which
	// builds Config{Domains: 1}, keeps compiling; New panics on more.
	Domains int
}

// Sim is the sequential mailbox executive.
type Sim struct {
	dom     Domain
	ports   []*Port
	txs     int // txs ever created, for stable id assignment
	msgs    msgHeap
	running bool
}

// Domain is the Sim's one scheduler, the handle actors are built against.
type Domain struct {
	sched *vtime.Scheduler
}

// Port is a stable inbound mailbox endpoint. Messages are delivered to
// its handler exactly latency after the send, merged canonically with
// all other mailbox traffic.
type Port struct {
	id      int
	latency vtime.Time
	handler func(at vtime.Time, payload any)
}

// Tx is a stable sending endpoint. Its id and per-message sequence
// numbers provide the tiebreak for deliveries that share a timestamp.
type Tx struct {
	id  int
	sim *Sim
	seq uint64
}

// message is one in-flight mailbox event.
type message struct {
	at      vtime.Time
	port    int32
	tx      int32
	seq     uint64
	payload any
}

// New builds a Sim with a fresh scheduler. It panics if cfg asks for
// more than one domain.
func New(cfg Config) *Sim {
	if cfg.Domains > 1 {
		panic(fmt.Sprintf("domain: %d domains requested; the executive is sequential (1 domain)", cfg.Domains))
	}
	return &Sim{dom: Domain{sched: vtime.NewScheduler()}}
}

// Domain returns the Sim's domain; i must be 0.
func (s *Sim) Domain(i int) *Domain {
	if i != 0 {
		panic(fmt.Sprintf("domain: Domain(%d) on a single-domain Sim", i))
	}
	return &s.dom
}

// Scheduler returns the domain's event scheduler.
func (d *Domain) Scheduler() *vtime.Scheduler { return d.sched }

// NewPort creates an inbound mailbox endpoint on d. latency is the fixed
// delivery delay and must be at least 1 ns (a link's propagation time);
// handler runs at exactly send-time+latency. Ports must be created
// before Run.
func (s *Sim) NewPort(d *Domain, latency vtime.Time, handler func(at vtime.Time, payload any)) *Port {
	if s.running {
		panic("domain: NewPort during Run")
	}
	if latency < vtime.Nanosecond {
		panic(fmt.Sprintf("domain: port latency %v below the 1ns floor", latency))
	}
	if handler == nil {
		panic("domain: nil port handler")
	}
	p := &Port{id: len(s.ports), latency: latency, handler: handler}
	s.ports = append(s.ports, p)
	return p
}

// NewTx creates a sending endpoint on d. Like ports, txs must be created
// before Run.
func (s *Sim) NewTx(d *Domain) *Tx {
	if s.running {
		panic("domain: NewTx during Run")
	}
	t := &Tx{id: s.txs, sim: s}
	s.txs++
	return t
}

// Send posts payload to port p, to be delivered at now+p.latency. It
// must be called from an event or delivery handler (or before Run),
// which is what makes the send time — and therefore the delivery time —
// deterministic.
func (tx *Tx) Send(p *Port, payload any) {
	s := tx.sim
	s.msgs.push(message{
		at:   s.dom.sched.Now() + p.latency,
		port: int32(p.id), tx: int32(tx.id), seq: tx.seq,
		payload: payload,
	})
	tx.seq++
	s.dom.sched.SetHorizon(s.msgs.h[0].at)
}

// Run executes the simulation to completion: mailbox deliveries and
// scheduler events interleaved in timestamp order, deliveries first at
// ties (in canonical message order). With no ports it is exactly
// vtime.Scheduler.Run.
func (s *Sim) Run() {
	if s.running {
		panic("domain: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	sched := s.dom.sched
	for {
		mt, mok := s.msgs.min()
		et, eok := sched.NextAt()
		switch {
		case mok && (!eok || mt <= et):
			m := s.msgs.pop()
			// Keep AdvanceIfIdle honest: batching may not cross the next
			// pending delivery (0 clears the horizon once none is left).
			next, _ := s.msgs.min()
			sched.SetHorizon(next)
			sched.AdvanceTo(m.at)
			s.ports[m.port].handler(m.at, m.payload)
		case eok:
			sched.Step()
		default:
			return
		}
	}
}

// Now returns the scheduler's clock — after Run, the virtual time at
// which the simulation drained.
func (s *Sim) Now() vtime.Time { return s.dom.sched.Now() }

// msgHeap is a binary min-heap of messages in canonical delivery order:
// (deliver-at, port, tx, seq).
type msgHeap struct{ h []message }

func msgLess(a, b message) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.port != b.port {
		return a.port < b.port
	}
	if a.tx != b.tx {
		return a.tx < b.tx
	}
	return a.seq < b.seq
}

func (m *msgHeap) min() (vtime.Time, bool) {
	if len(m.h) == 0 {
		return 0, false
	}
	return m.h[0].at, true
}

func (m *msgHeap) push(x message) {
	m.h = append(m.h, x)
	i := len(m.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(x, m.h[p]) {
			break
		}
		m.h[i] = m.h[p]
		i = p
	}
	m.h[i] = x
}

func (m *msgHeap) pop() message {
	root := m.h[0]
	n := len(m.h) - 1
	x := m.h[n]
	m.h[n] = message{} // release payload reference
	m.h = m.h[:n]
	if n > 0 {
		i := 0
		for {
			c := i*2 + 1
			if c >= n {
				break
			}
			if c+1 < n && msgLess(m.h[c+1], m.h[c]) {
				c++
			}
			if !msgLess(m.h[c], x) {
				break
			}
			m.h[i] = m.h[c]
			i = c
		}
		m.h[i] = x
	}
	return root
}
