package vtime

import "testing"

func TestTimerRearmAndStop(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	if tm.Armed() {
		t.Fatal("new timer armed")
	}
	if tm.Stop() {
		t.Fatal("Stop on disarmed timer returned true")
	}
	tm.Schedule(10)
	if !tm.Armed() {
		t.Fatal("timer not armed after Schedule")
	}
	s.Run()
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if tm.Armed() {
		t.Fatal("timer armed after firing")
	}
	// Re-arm the same timer: one Timer serves many firings.
	tm.ScheduleAt(25)
	s.Run()
	if len(fired) != 2 || fired[1] != 25 {
		t.Fatalf("fired = %v, want [10 25]", fired)
	}
	// Stop prevents a pending firing.
	tm.Schedule(5)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer returned false")
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("stopped timer fired: %v", fired)
	}
}

func TestTimerScheduleReplacesPrevious(t *testing.T) {
	s := NewScheduler()
	n := 0
	tm := s.NewTimer(func() { n++ })
	tm.Schedule(10)
	tm.Schedule(20) // replaces, does not add
	s.Run()
	if n != 1 {
		t.Fatalf("timer fired %d times, want 1", n)
	}
	if s.Now() != 20 {
		t.Fatalf("now = %v, want 20ns", s.Now())
	}
}

func TestTimerSelfReschedule(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	var tm *Timer
	tm = s.NewTimer(func() {
		fired = append(fired, s.Now())
		if len(fired) < 3 {
			tm.Schedule(7)
		}
	})
	tm.Schedule(7)
	s.Run()
	want := []Time{7, 14, 21}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	var tm *Timer
	tm = s.Every(100, func() {
		fired = append(fired, s.Now())
		if len(fired) == 4 {
			tm.Stop()
		}
	})
	s.Run()
	want := []Time{100, 200, 300, 400}
	if len(fired) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewScheduler().Every(0, func() {})
}

func TestAdvanceIfIdle(t *testing.T) {
	s := NewScheduler()
	if !s.AdvanceIfIdle(50) {
		t.Fatal("empty scheduler refused to advance")
	}
	if s.Now() != 50 {
		t.Fatalf("now = %v, want 50ns", s.Now())
	}
	if s.AdvanceIfIdle(40) {
		t.Fatal("advanced backwards")
	}
	s.At(100, func() {})
	if s.AdvanceIfIdle(100) {
		t.Fatal("advanced over an event due at exactly t")
	}
	if s.AdvanceIfIdle(150) {
		t.Fatal("advanced over a pending event")
	}
	if s.Now() != 50 {
		t.Fatalf("failed advance moved the clock to %v", s.Now())
	}
	if !s.AdvanceIfIdle(99) {
		t.Fatal("refused to advance short of the pending event")
	}
	s.Step() // run the event at 100
	// A cancelled event no longer blocks advancing.
	id := s.At(120, func() {})
	s.Cancel(id)
	if !s.AdvanceIfIdle(130) {
		t.Fatal("cancelled event blocked advancing")
	}
}

// TestCompaction drives the cancel-heavy path that triggers the stale
// sweep and checks the heap actually shrinks while survivors stay correct.
func TestCompaction(t *testing.T) {
	s := NewScheduler()
	const n = 10_000
	ids := make([]EventID, 0, n)
	var fired []Time
	for i := 0; i < n; i++ {
		at := Time(i + 1)
		if i%100 == 0 {
			s.At(at, func() { fired = append(fired, s.Now()) })
			continue
		}
		ids = append(ids, s.At(at, func() { t.Errorf("cancelled event at %v fired", at) }))
	}
	for _, id := range ids {
		if !s.Cancel(id) {
			t.Fatal("cancel failed")
		}
	}
	if len(s.heap) >= n/2 {
		t.Fatalf("heap holds %d entries after mass cancel, want far fewer", len(s.heap))
	}
	if got, want := s.Pending(), n/100; got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	s.Run()
	if len(fired) != n/100 {
		t.Fatalf("%d survivors fired, want %d", len(fired), n/100)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("survivors fired out of order: %v", fired)
		}
	}
}

func nopEvent() {}

// TestScheduleStepZeroAllocs is the regression guard for the scheduler's
// hot path: once the slot pool and heap have reached steady-state size,
// schedule+step must not allocate.
func TestScheduleStepZeroAllocs(t *testing.T) {
	s := NewScheduler()
	// Warm the pool and heap.
	for i := 0; i < 1024; i++ {
		s.At(s.Now()+Time(i+1), nopEvent)
	}
	for s.Pending() > 0 {
		s.Step()
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+1, nopEvent)
		s.Step()
	}); n > 0 {
		t.Errorf("schedule+step allocates %.2f/op, want 0", n)
	}
}

func TestScheduleCancelZeroAllocs(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 1024; i++ {
		s.At(s.Now()+Time(i+1), nopEvent)
	}
	for s.Pending() > 0 {
		s.Step()
	}
	if n := testing.AllocsPerRun(1000, func() {
		id := s.At(s.Now()+1, nopEvent)
		s.Cancel(id)
	}); n > 0 {
		t.Errorf("schedule+cancel allocates %.2f/op, want 0", n)
	}
}

func TestTimerRearmZeroAllocs(t *testing.T) {
	s := NewScheduler()
	tm := s.NewTimer(nopEvent)
	tm.Schedule(1)
	s.Run()
	if n := testing.AllocsPerRun(1000, func() {
		tm.Schedule(1)
		s.Step()
	}); n > 0 {
		t.Errorf("timer re-arm allocates %.2f/op, want 0", n)
	}
}
