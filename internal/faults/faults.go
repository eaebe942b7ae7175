// Package faults is a deterministic, virtual-clock-driven fault
// injector for the capture simulator. A Schedule of timed fault windows
// is installed into an Injector before the run starts; every activation
// and deactivation is an ordinary scheduler event, and every hot-path
// query is an O(1) map lookup against the currently active windows. The
// same seed and schedule therefore produce the same fault sequence, the
// same recovery actions, and the same RunReport digest — chaos runs are
// regression-gateable exactly like the steady-state ones.
//
// The taxonomy covers the three layers the WireCAP stack can lose
// packets in: the NIC (descriptor write-back stalls, DMA frame
// corruption, whole-queue hangs, link flaps), host memory (transient
// allocation failure; pool exhaustion emerges from the consumer
// faults), and the consumer (slow, stalled, or crashed packet-handler
// threads). Injection points live in internal/nic, internal/mem, and
// the engines; recovery lives in internal/core only — the baseline
// engines take the same faults with no recovery, which is the point of
// the comparison.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// Kind identifies one fault mechanism.
type Kind uint8

// Fault kinds.
const (
	// DescStall models descriptor write-back stalls: the queue's DMA
	// engine cannot complete writes, so arriving frames drop before
	// host memory.
	DescStall Kind = iota
	// DMACorrupt flips bytes in the frame during the DMA write and
	// marks the descriptor's integrity error bit (a bad checksum).
	DMACorrupt
	// QueueHang freezes one receive queue entirely: nothing reaches its
	// ring while the window is open.
	QueueHang
	// LinkFlap takes the whole NIC's link down: every offered frame is
	// lost at the wire.
	LinkFlap
	// AllocFail makes the queue's ring-buffer-pool allocations fail
	// transiently (the kernel allocator under memory pressure).
	AllocFail
	// HandlerSlow multiplies the packet handler's per-packet cost.
	HandlerSlow
	// HandlerStall parks the packet handler: it processes nothing until
	// the window closes.
	HandlerStall
	// HandlerCrash kills the packet handler permanently: the in-flight
	// packet completes, no further packet is ever fetched.
	HandlerCrash

	// The host-level kinds target a whole capture host in a fleet run
	// (internal/fleet); the Event's NIC field names the host. They are
	// inert for components that never query them.

	// HostCrash takes the entire host down: the NIC link drops, the
	// consumer stops, and all host-buffered aggregation state (open
	// batches, unsent link queue) is lost. Dur == 0 is a permanent kill;
	// Dur > 0 models a restart with state loss when the window closes.
	HostCrash
	// AggLinkDown partitions the host's aggregation link to the
	// collector: sends fail and the host falls back to its bounded
	// retry/backoff schedule. Short repeated windows model link flaps.
	AggLinkDown
	// HostBrownout slows the whole host down (thermal throttling, a
	// noisy neighbor): Severity multiplies the host's per-packet
	// processing cost (default 4, minimum > 1).
	HostBrownout

	numKinds
)

func (k Kind) String() string {
	switch k {
	case DescStall:
		return "desc_stall"
	case DMACorrupt:
		return "dma_corrupt"
	case QueueHang:
		return "queue_hang"
	case LinkFlap:
		return "link_flap"
	case AllocFail:
		return "alloc_fail"
	case HandlerSlow:
		return "handler_slow"
	case HandlerStall:
		return "handler_stall"
	case HandlerCrash:
		return "handler_crash"
	case HostCrash:
		return "host_crash"
	case AggLinkDown:
		return "agg_link_down"
	case HostBrownout:
		return "host_brownout"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one fault window: Kind active on {NIC, Queue} from At for
// Dur. Dur == 0 means permanent (the window never closes); for
// HandlerStall a zero duration is normalized to HandlerCrash, since a
// stall that never ends is a crash. Queue is ignored for LinkFlap.
//
// Severity refines the fault where it makes sense: for DMACorrupt it is
// the per-frame corruption probability (default 1, clamped to (0, 1]);
// for HandlerSlow it is the cost multiplier (default 4, minimum > 1).
type Event struct {
	At       vtime.Time
	Dur      vtime.Time
	Kind     Kind
	NIC      int
	Queue    int
	Severity float64
}

func (ev Event) String() string {
	return fmt.Sprintf("%s@{nic %d, queue %d} at %v for %v", ev.Kind, ev.NIC, ev.Queue, ev.At, ev.Dur)
}

// Schedule is a set of fault windows. Order does not matter; Install
// sorts a copy so identical schedules written in any order inject
// identically.
type Schedule []Event

// sorted returns a stably ordered copy: by activation time, then kind,
// then NIC, then queue.
func (s Schedule) sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.NIC != b.NIC {
			return a.NIC < b.NIC
		}
		return a.Queue < b.Queue
	})
	return out
}

// qkey addresses per-queue fault state.
type qkey struct{ nic, queue int }

// window is the active-window state for kinds that carry a severity:
// count handles overlapping windows, sev is the most recent severity.
type window struct {
	count int
	sev   float64
}

// Injector holds the installed schedule's live state and answers the
// hot-path queries. All query methods are nil-receiver safe (a nil
// injector reports "no fault"), so call sites need no guards.
type Injector struct {
	sched *vtime.Scheduler
	rnd   *vtime.Rand

	linkDown map[int]int // nic -> open flap windows
	hung     map[qkey]int
	stalled  map[qkey]int
	allocf   map[qkey]int
	corrupt  map[qkey]window
	slow     map[qkey]window
	stallEnd map[qkey]vtime.Time // handler stalled until (max across windows)
	crashed  map[qkey]bool

	// Host-level fault state, keyed by host id (the Event's NIC field).
	hostDown map[int]int
	aggDown  map[int]int
	brown    map[int]window

	// pending counts scheduled activation/deactivation events that have
	// not fired yet; Quiet reports pending == 0. Permanent faults leave
	// state behind but do not keep the injector un-quiet, so watchdogs
	// built on Quiet cannot keep the event queue alive forever.
	pending int

	onActivate   func()
	onTransition func(ev Event, open bool)
	trace        *obs.Recorder

	injected  [numKinds]uint64
	corrupted uint64
}

// NewInjector builds an injector bound to the run's scheduler. The seed
// drives the probabilistic corruption decisions only; windows are exact.
func NewInjector(sched *vtime.Scheduler, seed uint64) *Injector {
	return &Injector{
		sched:    sched,
		rnd:      vtime.NewRand(seed ^ 0x9e3779b97f4a7c15),
		linkDown: make(map[int]int),
		hung:     make(map[qkey]int),
		stalled:  make(map[qkey]int),
		allocf:   make(map[qkey]int),
		corrupt:  make(map[qkey]window),
		slow:     make(map[qkey]window),
		stallEnd: make(map[qkey]vtime.Time),
		crashed:  make(map[qkey]bool),
		hostDown: make(map[int]int),
		aggDown:  make(map[int]int),
		brown:    make(map[int]window),
	}
}

// OnActivate registers a callback run whenever any fault window opens.
// The recovery watchdog in internal/core uses it to wake up when a
// fault lands while it is parked; activation is a scheduler event, so
// the wake-up is deterministic.
func (inj *Injector) OnActivate(fn func()) { inj.onActivate = fn }

// OnTransition registers a callback run after any fault window opens
// (open == true) or closes (open == false), with the injector's state
// already updated. Fleet hosts (internal/fleet) use it to run their
// crash/restart transitions inside the same deterministic event as the
// state change. Permanent windows never close.
func (inj *Injector) OnTransition(fn func(ev Event, open bool)) { inj.onTransition = fn }

// SetTrace attaches the run's flight recorder: every window open/close
// becomes a fault-window annotation on the trace, so drops and spans
// that overlap a window carry its id. nil (the default) records
// nothing.
func (inj *Injector) SetTrace(rec *obs.Recorder) { inj.trace = rec }

// traceQueue is the queue scope a fault window is recorded under:
// LinkFlap and the host-level kinds take more than one queue down, so
// they annotate every queue (-1).
func traceQueue(ev Event) int {
	if ev.Kind == LinkFlap || hostScoped(ev.Kind) {
		return -1
	}
	return ev.Queue
}

// hostScoped reports whether the kind targets a whole host (the Event's
// Queue field is ignored).
func hostScoped(k Kind) bool {
	return k == HostCrash || k == AggLinkDown || k == HostBrownout
}

// shadowProne reports whether overlapping same-target windows of the
// kind silently shadow each other: the kinds that carry one live
// severity per target, where a second window overwrites the first's
// severity and the first deactivation restores nothing.
func shadowProne(k Kind) bool {
	return k == DMACorrupt || k == HandlerSlow || k == HostBrownout
}

// OverlapError is the typed rejection Validate returns for two windows
// of a shadow-prone kind that overlap on the same target: the later
// window's severity would silently shadow the earlier one's for the
// rest of both windows, which is never what a schedule means.
type OverlapError struct {
	A, B Event
}

func (e *OverlapError) Error() string {
	return fmt.Sprintf("faults: overlapping %s windows on the same target shadow each other: [%s] overlaps [%s]",
		e.A.Kind, e.A, e.B)
}

// target is the validation scope of an event: queue-scoped kinds key on
// {NIC, Queue}; LinkFlap and the host-level kinds key on NIC alone.
func target(ev Event) qkey {
	if ev.Kind == LinkFlap || hostScoped(ev.Kind) {
		return qkey{nic: ev.NIC, queue: -1}
	}
	return qkey{nic: ev.NIC, queue: ev.Queue}
}

// overlaps reports whether the two windows share any instant; Dur == 0
// is an unbounded (permanent) window.
func overlaps(a, b Event) bool {
	if a.Dur > 0 && a.At+a.Dur <= b.At {
		return false
	}
	if b.Dur > 0 && b.At+b.Dur <= a.At {
		return false
	}
	return true
}

// Validate rejects schedules whose windows would silently shadow each
// other: two windows of the same shadow-prone kind (DMACorrupt,
// HandlerSlow, HostBrownout) overlapping on the same target. Count-based
// kinds compose across overlaps and pass. The returned error is always
// an *OverlapError naming both windows.
func (s Schedule) Validate() error {
	byTarget := make(map[qkey][]Event)
	for _, ev := range s.sorted() {
		ev = normalize(ev)
		if !shadowProne(ev.Kind) {
			continue
		}
		k := target(ev)
		for _, prev := range byTarget[k] {
			if prev.Kind == ev.Kind && overlaps(prev, ev) {
				return &OverlapError{A: prev, B: ev}
			}
		}
		byTarget[k] = append(byTarget[k], ev)
	}
	return nil
}

// Install validates sch and schedules every event. Call before the run
// starts (an event in the virtual past panics, as all scheduling does).
// The only error is Validate's *OverlapError.
func (inj *Injector) Install(sch Schedule) error {
	if err := sch.Validate(); err != nil {
		return err
	}
	for _, ev := range sch.sorted() {
		ev := normalize(ev)
		inj.pending++
		inj.sched.At(ev.At, func() { inj.activate(ev) })
	}
	return nil
}

func normalize(ev Event) Event {
	if ev.Kind == HandlerStall && ev.Dur <= 0 {
		ev.Kind = HandlerCrash
	}
	switch ev.Kind {
	case DMACorrupt:
		if ev.Severity <= 0 || ev.Severity > 1 {
			ev.Severity = 1
		}
	case HandlerSlow, HostBrownout:
		if ev.Severity <= 1 {
			ev.Severity = 4
		}
	}
	return ev
}

func (inj *Injector) activate(ev Event) {
	inj.injected[ev.Kind]++
	inj.trace.FaultOpen(ev.Kind.String(), ev.NIC, traceQueue(ev), ev.At)
	k := qkey{ev.NIC, ev.Queue}
	switch ev.Kind {
	case DescStall:
		inj.stalled[k]++
	case DMACorrupt:
		w := inj.corrupt[k]
		w.count++
		w.sev = ev.Severity
		inj.corrupt[k] = w
	case QueueHang:
		inj.hung[k]++
	case LinkFlap:
		inj.linkDown[ev.NIC]++
	case AllocFail:
		inj.allocf[k]++
	case HandlerSlow:
		w := inj.slow[k]
		w.count++
		w.sev = ev.Severity
		inj.slow[k] = w
	case HandlerStall:
		end := ev.At + ev.Dur
		if end > inj.stallEnd[k] {
			inj.stallEnd[k] = end
		}
	case HandlerCrash:
		inj.crashed[k] = true
	case HostCrash:
		inj.hostDown[ev.NIC]++
	case AggLinkDown:
		inj.aggDown[ev.NIC]++
	case HostBrownout:
		w := inj.brown[ev.NIC]
		w.count++
		w.sev = ev.Severity
		inj.brown[ev.NIC] = w
	}
	// A permanent window (and a crash) never deactivates: settle its
	// pending slot now so Quiet can become true once the schedule is
	// exhausted, leaving only steady state behind.
	if ev.Dur > 0 && ev.Kind != HandlerCrash {
		inj.sched.After(ev.Dur, func() { inj.deactivate(ev) })
	} else {
		inj.pending--
	}
	if inj.onActivate != nil {
		inj.onActivate()
	}
	if inj.onTransition != nil {
		inj.onTransition(ev, true)
	}
}

func (inj *Injector) deactivate(ev Event) {
	inj.pending--
	inj.trace.FaultClose(ev.Kind.String(), ev.NIC, traceQueue(ev), ev.At+ev.Dur)
	k := qkey{ev.NIC, ev.Queue}
	switch ev.Kind {
	case DescStall:
		if inj.stalled[k]--; inj.stalled[k] == 0 {
			delete(inj.stalled, k)
		}
	case DMACorrupt:
		w := inj.corrupt[k]
		if w.count--; w.count == 0 {
			delete(inj.corrupt, k)
		} else {
			inj.corrupt[k] = w
		}
	case QueueHang:
		if inj.hung[k]--; inj.hung[k] == 0 {
			delete(inj.hung, k)
		}
	case LinkFlap:
		if inj.linkDown[ev.NIC]--; inj.linkDown[ev.NIC] == 0 {
			delete(inj.linkDown, ev.NIC)
		}
	case AllocFail:
		if inj.allocf[k]--; inj.allocf[k] == 0 {
			delete(inj.allocf, k)
		}
	case HandlerSlow:
		w := inj.slow[k]
		if w.count--; w.count == 0 {
			delete(inj.slow, k)
		} else {
			inj.slow[k] = w
		}
	case HandlerStall:
		// stallEnd already encodes the window end; nothing to clear
		// (HandlerStalled compares against now).
	case HostCrash:
		if inj.hostDown[ev.NIC]--; inj.hostDown[ev.NIC] == 0 {
			delete(inj.hostDown, ev.NIC)
		}
	case AggLinkDown:
		if inj.aggDown[ev.NIC]--; inj.aggDown[ev.NIC] == 0 {
			delete(inj.aggDown, ev.NIC)
		}
	case HostBrownout:
		w := inj.brown[ev.NIC]
		if w.count--; w.count == 0 {
			delete(inj.brown, ev.NIC)
		} else {
			inj.brown[ev.NIC] = w
		}
	}
	if inj.onTransition != nil {
		inj.onTransition(ev, false)
	}
}

// LinkUp reports whether the NIC's link is up. A crashed host (fleet
// runs key hosts by NIC id) takes its NIC's link down too: frames
// offered to a dead host are lost at the wire.
func (inj *Injector) LinkUp(nicID int) bool {
	return inj == nil || (inj.linkDown[nicID] == 0 && inj.hostDown[nicID] == 0)
}

// HostDown reports whether the host is inside a crash window.
func (inj *Injector) HostDown(host int) bool {
	return inj != nil && inj.hostDown[host] > 0
}

// AggLinkUp reports whether the host's aggregation link to the
// collector is currently passing traffic.
func (inj *Injector) AggLinkUp(host int) bool {
	return inj == nil || inj.aggDown[host] == 0
}

// HostSlowdown returns the host-wide processing cost multiplier (1 when
// no brownout window is open).
func (inj *Injector) HostSlowdown(host int) float64 {
	if inj == nil {
		return 1
	}
	if w, ok := inj.brown[host]; ok {
		return w.sev
	}
	return 1
}

// QueueHung reports whether the queue is frozen.
func (inj *Injector) QueueHung(nicID, queue int) bool {
	return inj != nil && inj.hung[qkey{nicID, queue}] > 0
}

// DescStalled reports whether descriptor write-back is stalled.
func (inj *Injector) DescStalled(nicID, queue int) bool {
	return inj != nil && inj.stalled[qkey{nicID, queue}] > 0
}

// AllocFails reports whether a pool allocation on the queue should fail
// transiently right now.
func (inj *Injector) AllocFails(nicID, queue int) bool {
	return inj != nil && inj.allocf[qkey{nicID, queue}] > 0
}

// CorruptFrame possibly corrupts a frame mid-DMA: under an open
// corruption window it flips one byte (position drawn from the
// injector's seeded generator) with the window's probability and
// reports whether it did. The caller marks the descriptor's error bit.
func (inj *Injector) CorruptFrame(nicID, queue int, frame []byte) bool {
	if inj == nil || len(frame) == 0 {
		return false
	}
	w, ok := inj.corrupt[qkey{nicID, queue}]
	if !ok {
		return false
	}
	if w.sev < 1 && inj.rnd.Float64() >= w.sev {
		return false
	}
	frame[inj.rnd.Intn(len(frame))] ^= 0x5a
	inj.corrupted++
	return true
}

// HandlerSlowdown returns the handler cost multiplier (1 when no slow
// window is open).
func (inj *Injector) HandlerSlowdown(nicID, queue int) float64 {
	if inj == nil {
		return 1
	}
	if w, ok := inj.slow[qkey{nicID, queue}]; ok {
		return w.sev
	}
	return 1
}

// HandlerStalled reports whether the handler is inside a stall window,
// and until when.
func (inj *Injector) HandlerStalled(nicID, queue int) (until vtime.Time, stalled bool) {
	if inj == nil {
		return 0, false
	}
	end, ok := inj.stallEnd[qkey{nicID, queue}]
	if !ok || end <= inj.sched.Now() {
		return 0, false
	}
	return end, true
}

// HandlerCrashed reports whether the handler has crashed.
func (inj *Injector) HandlerCrashed(nicID, queue int) bool {
	return inj != nil && inj.crashed[qkey{nicID, queue}]
}

// Quiet reports that no schedule event (activation or window close) is
// outstanding: every remaining fault effect is steady state. Watchdogs
// use it to decide the injector cannot surprise them between now and
// the end of the run without OnActivate firing — which, after Quiet,
// it cannot.
func (inj *Injector) Quiet() bool { return inj == nil || inj.pending == 0 }

// Register exports the injector's counters: one faults_injected_total
// series per kind (labeled kind=...) plus faults_corrupted_frames_total.
// All function-backed — sampled at snapshot time only.
func (inj *Injector) Register(reg *metrics.Registry) {
	for k := Kind(0); k < numKinds; k++ {
		k := k
		reg.CounterFunc("faults_injected_total",
			func() uint64 { return inj.injected[k] },
			metrics.L("kind", k.String()))
	}
	reg.CounterFunc("faults_corrupted_frames_total",
		func() uint64 { return inj.corrupted })
}

// RandomConfig parameterizes RandomSchedule.
type RandomConfig struct {
	// NICs and Queues bound the fault targets. Defaults 1 and 1.
	NICs, Queues int
	// Events is the number of windows to draw. Default 8.
	Events int
	// Horizon is the time range windows start in. Default 100 ms.
	Horizon vtime.Time
	// MaxDur bounds each window's duration. Default Horizon / 4.
	MaxDur vtime.Time
	// Kinds restricts the drawn kinds; nil means every single-host kind
	// (the host-scoped fleet kinds are opted into explicitly).
	Kinds []Kind
}

// RandomSchedule draws a reproducible schedule from the seed — the
// property tests' fuzz surface. The same seed and config always produce
// the same schedule. Draws that would fail Validate (a shadow-prone
// window overlapping an earlier draw on the same target) are discarded
// deterministically, so the result always installs cleanly.
//
//wirelint:allow deadexport test oracle: fleet's TestConservationUnderRandomChaos and bench's TestChaosProperties draw their fault storms from it
func RandomSchedule(seed uint64, cfg RandomConfig) Schedule {
	if cfg.NICs <= 0 {
		cfg.NICs = 1
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.Events <= 0 {
		cfg.Events = 8
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 100 * vtime.Millisecond
	}
	if cfg.MaxDur <= 0 {
		cfg.MaxDur = cfg.Horizon / 4
	}
	kinds := cfg.Kinds
	if kinds == nil {
		for k := Kind(0); k < HostCrash; k++ {
			kinds = append(kinds, k)
		}
	}
	r := vtime.NewRand(seed)
	sch := make(Schedule, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		ev := Event{
			At:    vtime.Time(r.Intn(int(cfg.Horizon))) + 1,
			Dur:   vtime.Time(r.Intn(int(cfg.MaxDur))) + 1,
			Kind:  kinds[r.Intn(len(kinds))],
			NIC:   r.Intn(cfg.NICs),
			Queue: r.Intn(cfg.Queues),
		}
		switch ev.Kind {
		case DMACorrupt:
			ev.Severity = 0.25 + r.Float64()*0.75
		case HandlerSlow, HostBrownout:
			ev.Severity = 2 + r.Float64()*6
		}
		if shadowProne(ev.Kind) && Schedule(append(sch[:len(sch):len(sch)], ev)).Validate() != nil {
			continue
		}
		sch = append(sch, ev)
	}
	return sch
}
