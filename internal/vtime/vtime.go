// Package vtime provides a deterministic discrete-event simulation engine:
// a virtual clock, an event scheduler, seeded random numbers, and small
// rate/bandwidth helpers used by the NIC, bus, and engine models.
//
// All simulation components in this repository advance time exclusively
// through a Scheduler, so every experiment is bit-for-bit reproducible and
// a 32-second, 5-million-packet trace replays in well under a second of
// wall-clock time.
//
// The scheduler is engineered for the simulator's hot path: events live in
// a value-typed 4-ary heap over a generation-counted slot pool, so the
// steady state of schedule/cancel/step performs zero heap allocations and
// no interface boxing. Cancellation is lazy (a cancelled slot's stale heap
// entry is discarded when it surfaces), which keeps Cancel O(1).
package vtime

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately not time.Time: virtual time has no epoch,
// no monotonic-clock subtleties, and no wall-clock meaning.
type Time int64

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual nanoseconds.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// PerSecond returns the interval between events occurring at the given
// rate (events per second). A non-positive rate returns the maximum
// representable interval, effectively "never".
func PerSecond(rate float64) Time {
	if rate <= 0 {
		return Time(math.MaxInt64)
	}
	return Time(float64(Second) / rate)
}

// entry is one heap element: the ordering key (at, seq) plus the slot the
// callback lives in and the slot generation the entry was created for. seq
// breaks ties so that events scheduled earlier at the same timestamp run
// first (FIFO within a timestamp), which keeps the simulation
// deterministic. A generation mismatch marks the entry stale (cancelled);
// stale entries are discarded when they reach the heap root.
type entry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

// slot holds one event callback. Slots are pooled: firing or cancelling an
// event bumps the generation and links the slot onto the free list, so the
// steady state schedules into recycled slots without allocating.
type slot struct {
	fn   func()
	gen  uint32
	next int32 // free-list link, 1-based; 0 terminates
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never live.
type EventID struct {
	slot int32 // 1-based; 0 means invalid
	gen  uint32
}

// Scheduler is a discrete-event simulation executive. The zero value is
// ready to use; it starts at virtual time 0.
//
// Scheduler is not safe for concurrent use: the simulation is
// single-threaded by design (determinism), with concurrency in the modeled
// system expressed as interleaved events rather than goroutines.
type Scheduler struct {
	now     Time
	heap    []entry
	slots   []slot
	free    int32 // free-list head, 1-based; 0 means empty
	seq     uint64
	live    int
	stale   int // cancelled events whose heap entries remain
	stopped bool
	// horizon, when nonzero, is an externally imposed bound the clock may
	// not cross via AdvanceIfIdle: the mailbox executive
	// (internal/vtime/domain) sets it to the next pending delivery, so
	// hot-path batching can never skip over a mailbox message. Zero means
	// unbounded (the default, single-scheduler behavior).
	horizon Time
}

// NewScheduler returns a scheduler starting at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
//
//wirecap:hotpath
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it always indicates a modeling bug, and silently
// clamping it would hide causality violations.
//
//wirecap:hotpath
func (s *Scheduler) At(t Time, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("vtime: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("vtime: nil event function")
	}
	var si int32
	if s.free != 0 {
		si = s.free - 1
		s.free = s.slots[si].next
	} else {
		s.slots = append(s.slots, slot{gen: 1}) //wirelint:allow hotpath slot pool grows amortized; steady state pops the free list
		si = int32(len(s.slots) - 1)
	}
	sl := &s.slots[si]
	sl.fn = fn
	s.push(entry{at: t, seq: s.seq, slot: si, gen: sl.gen})
	s.seq++
	s.live++
	return EventID{slot: si + 1, gen: sl.gen}
}

// After schedules fn to run d nanoseconds from now.
//
//wirecap:hotpath
func (s *Scheduler) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// freeSlot retires slot si: the generation bump invalidates any
// outstanding EventID and heap entry, and the slot joins the free list.
//
//wirecap:hotpath
func (s *Scheduler) freeSlot(si int32) {
	sl := &s.slots[si]
	sl.fn = nil
	sl.gen++
	if sl.gen == 0 { // skip 0 on wraparound: gen 0 marks dead EventIDs
		sl.gen = 1
	}
	sl.next = s.free
	s.free = si + 1
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false. The event's heap
// entry is left in place and discarded lazily when it surfaces.
//
//wirecap:hotpath
func (s *Scheduler) Cancel(id EventID) bool {
	if id.slot <= 0 || int(id.slot) > len(s.slots) {
		return false
	}
	if s.slots[id.slot-1].gen != id.gen {
		return false
	}
	s.freeSlot(id.slot - 1)
	s.live--
	s.stale++
	// Keep lazy deletion from letting a cancel-heavy, rarely-stepping
	// workload grow the heap without bound: once stale entries dominate,
	// sweep them out and rebuild in one O(n) pass.
	if s.stale > 64 && s.stale > len(s.heap)/2 {
		s.compact()
	}
	return true
}

// compact removes every stale entry and restores the heap property with a
// bottom-up (Floyd) rebuild.
//
//wirecap:hotpath
func (s *Scheduler) compact() {
	kept := s.heap[:0]
	for _, e := range s.heap {
		if s.slots[e.slot].gen == e.gen {
			kept = append(kept, e) //wirelint:allow hotpath compaction reuses the backing array via kept[:0]
		}
	}
	s.heap = kept
	s.stale = 0
	if n := len(s.heap); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			s.siftDown(i, s.heap[i])
		}
	}
}

// Pending reports the number of events waiting to run.
func (s *Scheduler) Pending() int { return s.live }

// NextAt returns the timestamp of the earliest pending event, or false
// when the queue is empty. It does not run anything or move the clock;
// the mailbox executive uses it to interleave deliveries with events.
func (s *Scheduler) NextAt() (Time, bool) {
	e, ok := s.peek()
	return e.at, ok
}

// AdvanceTo moves the clock to t without running anything. It panics if
// t is in the past or if an event is pending before t — skipping work
// would be a causality violation, exactly like scheduling into the past.
// The mailbox executive uses it to stamp the clock at a delivery time
// before invoking the delivery handler.
func (s *Scheduler) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("vtime: AdvanceTo %v before now %v", t, s.now))
	}
	if e, ok := s.peek(); ok && e.at < t {
		panic(fmt.Sprintf("vtime: AdvanceTo %v would skip event at %v", t, e.at))
	}
	s.now = t
}

// SetHorizon bounds AdvanceIfIdle: with a nonzero horizon the clock will
// not batch-advance to any t >= horizon, forcing callers back onto real
// scheduled events that the mailbox executive's loop can see. Pass 0 to
// clear. Only the mailbox executive should need this; within a
// free-running scheduler the horizon stays 0 and batching is unbounded.
func (s *Scheduler) SetHorizon(t Time) { s.horizon = t }

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Pending events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// peek returns the earliest live heap entry, discarding stale (cancelled)
// entries on the way.
func (s *Scheduler) peek() (entry, bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if s.slots[e.slot].gen != e.gen {
			s.popRoot()
			s.stale--
			continue
		}
		return e, true
	}
	return entry{}, false
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It returns false if no events are pending.
//
//wirecap:hotpath
func (s *Scheduler) Step() bool {
	e, ok := s.peek()
	if !ok {
		return false
	}
	fn := s.slots[e.slot].fn
	s.popRoot()
	// Retire the slot before running fn: a self-rescheduling event reuses
	// its own slot, keeping the pool at its steady-state size.
	s.freeSlot(e.slot)
	s.live--
	s.now = e.at
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled after t remain pending.
func (s *Scheduler) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		e, ok := s.peek()
		if !ok || e.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// AdvanceIfIdle moves the clock forward to t when doing so skips nothing:
// it returns true — with the clock set to t — only if no pending event is
// due at or before t and Stop has not been requested. Otherwise it returns
// false and leaves the clock untouched; the caller must fall back to
// scheduling a normal event.
//
// It exists for hot-path batching: an event that knows its successor's
// timestamp (a paced packet generator, say) can process the successor
// inline instead of round-tripping through the heap, without ever
// reordering against other events. When an event IS pending at exactly t,
// falling back to At(t, fn) preserves the unbatched tie-break order too,
// because the fallback event is scheduled at the same point in the
// execution where the unbatched code would have scheduled it.
func (s *Scheduler) AdvanceIfIdle(t Time) bool {
	if t < s.now {
		return false
	}
	if s.stopped {
		return false
	}
	if s.horizon != 0 && t >= s.horizon {
		return false
	}
	if e, ok := s.peek(); ok && e.at <= t {
		return false
	}
	s.now = t
	return true
}

// 4-ary min-heap over (at, seq). A wider node halves the tree depth versus
// a binary heap, trading a few extra comparisons per level for fewer cache
// misses — a net win at the 1e5+ pending events the border workloads hold.

func lessEntry(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an entry, sifting up from the new leaf.
//
//wirecap:hotpath
func (s *Scheduler) push(e entry) {
	s.heap = append(s.heap, e) //wirelint:allow hotpath slot pool grows amortized; steady state pops the free list
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !lessEntry(e, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = e
}

// popRoot removes the heap minimum.
func (s *Scheduler) popRoot() {
	n := len(s.heap) - 1
	e := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0, e)
	}
}

// siftDown places e at index i, sinking it until both it and the heap
// below are in order.
func (s *Scheduler) siftDown(i int, e entry) {
	n := len(s.heap)
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessEntry(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !lessEntry(s.heap[m], e) {
			break
		}
		s.heap[i] = s.heap[m]
		i = m
	}
	s.heap[i] = e
}

// Timer is a reusable scheduled event: one callback bound once, re-armed
// as often as needed with no per-arming allocation. Periodic and
// self-rescheduling activities (packet pacing, NAPI polling ticks, TX
// drains) hold one Timer for their lifetime instead of allocating a
// closure per occurrence.
//
// A Timer is single-shot per arming: it disarms just before the callback
// runs, and the callback may re-arm it (including for the same virtual
// instant's successor).
type Timer struct {
	s     *Scheduler
	fn    func()
	runFn func() // bound once; what actually enters the event queue
	id    EventID
	armed bool
}

// NewTimer binds fn to a reusable timer on this scheduler. The timer
// starts disarmed.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("vtime: nil timer function")
	}
	t := &Timer{s: s, fn: fn}
	t.runFn = func() {
		t.armed = false
		t.fn()
	}
	return t
}

// ScheduleAt arms the timer for absolute time at, replacing any previous
// arming.
func (t *Timer) ScheduleAt(at Time) {
	if t.armed {
		t.s.Cancel(t.id)
	}
	t.id = t.s.At(at, t.runFn)
	t.armed = true
}

// Schedule arms the timer d nanoseconds from now, replacing any previous
// arming.
func (t *Timer) Schedule(d Time) {
	if d < 0 {
		d = 0
	}
	t.ScheduleAt(t.s.Now() + d)
}

// Stop disarms the timer. It reports whether the timer was armed.
func (t *Timer) Stop() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	return t.s.Cancel(t.id)
}

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return t.armed }

// Every returns an armed timer that runs fn every interval, first firing
// at now+interval. The timer re-arms before fn runs, so fn may call Stop
// to end the series or ScheduleAt/Schedule to change the cadence.
func (s *Scheduler) Every(interval Time, fn func()) *Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("vtime: Every interval %v", interval))
	}
	if fn == nil {
		panic("vtime: nil event function")
	}
	var t *Timer
	t = s.NewTimer(func() {
		t.Schedule(interval)
		fn()
	})
	t.Schedule(interval)
	return t
}
