package domain

import (
	"fmt"
	"testing"

	"repro/internal/vtime"
)

// TestDeliveryOrderCanonical pins the merge tiebreak: deliveries at the
// same virtual instant arrive ordered by (port, tx, seq) and before any
// scheduler event at that instant, regardless of the order in which the
// senders ran.
func TestDeliveryOrderCanonical(t *testing.T) {
	sim := New(Config{})
	d := sim.Domain(0)
	out := ""
	pa := sim.NewPort(d, vtime.Microsecond, func(at vtime.Time, p any) {
		out += fmt.Sprintf("A:%v:%v ", at, p)
	})
	pb := sim.NewPort(d, vtime.Microsecond, func(at vtime.Time, p any) {
		out += fmt.Sprintf("B:%v:%v ", at, p)
	})
	// An event at the exact delivery instant must run after every
	// delivery.
	d.Scheduler().At(vtime.Microsecond, func() { out += "internal " })
	// Senders run in reverse creation order; ids still fix the merge.
	n := 3
	txs := make([]*Tx, n)
	for i := range txs {
		txs[i] = sim.NewTx(d)
	}
	for i := n - 1; i >= 0; i-- {
		i := i
		d.Scheduler().At(0, func() {
			txs[i].Send(pb, i)
			txs[i].Send(pa, i)
		})
	}
	sim.Run()
	want := "A:0.000001s:0 A:0.000001s:1 A:0.000001s:2 B:0.000001s:0 B:0.000001s:1 B:0.000001s:2 internal "
	if out != want {
		t.Errorf("merge order %q, want %q", out, want)
	}
}

// TestHorizonStopsBatching proves the AdvanceIfIdle guard: a batching
// event must not skip past a pending mailbox delivery. The sender and
// the generator share the one scheduler; without the horizon the
// generator would batch to 1.4µs and the 1µs delivery would then panic
// in AdvanceTo.
func TestHorizonStopsBatching(t *testing.T) {
	sim := New(Config{})
	d := sim.Domain(0)
	sched := d.Scheduler()
	var log string
	port := sim.NewPort(d, vtime.Microsecond, func(at vtime.Time, p any) {
		log += fmt.Sprintf("deliver@%d ", at)
	})
	tx := sim.NewTx(d)
	sched.At(0, func() { tx.Send(port, "x") })
	var step func()
	n := 0
	step = func() {
		log += fmt.Sprintf("gen@%d ", sched.Now())
		n++
		if n >= 3 {
			return
		}
		next := sched.Now() + 700*vtime.Nanosecond
		if !sched.AdvanceIfIdle(next) {
			sched.At(next, step)
			return
		}
		step()
	}
	sched.At(0, step)
	sim.Run()
	want := "gen@0 gen@700 deliver@1000 gen@1400 "
	if log != want {
		t.Errorf("interleaving %q, want %q", log, want)
	}
}

// TestSingleDomainMatchesPlainScheduler: with no ports, Run is exactly
// the ordinary scheduler loop.
func TestSingleDomainMatchesPlainScheduler(t *testing.T) {
	plainSched := vtime.NewScheduler()
	plain := scheduleCounters(plainSched)
	plainSched.Run()

	sim := New(Config{Domains: 1})
	viaDomain := scheduleCounters(sim.Domain(0).Scheduler())
	sim.Run()

	if *plain != *viaDomain {
		t.Errorf("plain %q != single-domain %q", *plain, *viaDomain)
	}
	if plainSched.Now() != sim.Now() {
		t.Errorf("end times diverged: %v vs %v", plainSched.Now(), sim.Now())
	}
}

// scheduleCounters schedules a deterministic self-rescheduling workload
// on s and returns a pointer to its (growing) trace.
func scheduleCounters(s *vtime.Scheduler) *string {
	out := new(string)
	r := vtime.NewRand(3)
	for i := 0; i < 4; i++ {
		i := i
		left := 5
		var tick func()
		tick = func() {
			*out += fmt.Sprintf("%d@%v ", i, s.Now())
			if left--; left > 0 {
				s.After(vtime.Time(1+r.Intn(30)), tick)
			}
		}
		s.After(vtime.Time(1+r.Intn(10)), tick)
	}
	return out
}

// TestPortLatencyFloor: a zero-latency port would deliver at its own
// send instant and must be rejected loudly.
func TestPortLatencyFloor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPort with zero latency did not panic")
		}
	}()
	sim := New(Config{})
	sim.NewPort(sim.Domain(0), 0, func(vtime.Time, any) {})
}

// TestNewRejectsMultipleDomains: the executive is sequential, so asking
// for more than one domain is a configuration error, not a silent
// fallback.
func TestNewRejectsMultipleDomains(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(Config{Domains: 2}) did not panic")
		}
	}()
	New(Config{Domains: 2})
}
