package vtime

// Server models a single-threaded processing element (a CPU core running
// one thread) as a non-preemptive work-conserving server: work items are
// charged a service duration, and the server is busy until the sum of
// accepted service times has elapsed.
//
// Engines use Server to model application threads, capture threads, and
// kernel polling contexts, including the PF_RING receive-livelock case
// where two servers contend for the same core via a Core.
type Server struct {
	sched *Scheduler
	// busyUntil is the virtual time at which all accepted work completes.
	busyUntil Time
	// charged accumulates all accepted work, for CPU-utilization
	// accounting.
	charged Time
	// core, if non-nil, is the physical core this server runs on; its
	// share scales every charged duration.
	core *Core
}

// NewServer returns a server bound to the scheduler, optionally sharing a
// Core with other servers (pass nil for a dedicated core).
func NewServer(s *Scheduler, core *Core) *Server {
	return &Server{sched: s, core: core}
}

// Charge accepts a work item requiring d of service and returns the virtual
// time at which it completes. Work is serialized: if the server is busy the
// item starts when the previous items finish.
func (sv *Server) Charge(d Time) Time {
	if d < 0 {
		d = 0
	}
	if sv.core != nil {
		d = sv.core.scale(d)
	}
	start := sv.busyUntil
	if now := sv.sched.Now(); start < now {
		start = now
	}
	sv.busyUntil = start + d
	sv.charged += d
	return sv.busyUntil
}

// Charged returns the total work ever accepted, i.e. the server's
// cumulative CPU time.
func (sv *Server) Charged() Time { return sv.charged }

// ChargeAndCall charges d of service and schedules fn at the completion
// time.
func (sv *Server) ChargeAndCall(d Time, fn func()) {
	done := sv.Charge(d)
	sv.sched.At(done, fn)
}

// Core models a physical CPU core shared by several servers. When more
// than one server is attached, every server's service times are stretched
// by the reciprocal of its share. This is a fluid-flow approximation of
// time-slicing: it does not reorder work, but it reproduces the throughput
// collapse the paper attributes to receive livelock when kernel polling
// and the application share a core.
type Core struct {
	// kernelShare is the fraction of the core consumed by kernel-context
	// work (NAPI polling). The application server on this core runs at
	// (1 - kernelShare) speed. Updated dynamically by the PF_RING model.
	kernelShare float64
}

// NewCore returns a core with no kernel contention.
func NewCore() *Core { return &Core{} }

// SetKernelShare sets the fraction of CPU consumed by kernel polling,
// clamped to [0, 0.95]; the application always makes some progress, as
// NAPI's budget mechanism guarantees on a real system.
func (c *Core) SetKernelShare(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 0.95 {
		f = 0.95
	}
	c.kernelShare = f
}

func (c *Core) scale(d Time) Time {
	if c.kernelShare <= 0 {
		return d
	}
	return Time(float64(d) / (1 - c.kernelShare))
}
