package vtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOWithinTimestamp(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(42, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events reordered at %d: %v", i, got[:i+1])
		}
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.After(5, func() {
		fired = append(fired, s.Now())
		s.After(10, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [5 15]", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	id := s.At(10, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("first Cancel returned false")
	}
	if s.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var got []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, s.At(Time(i), func() { got = append(got, i) }))
	}
	s.Cancel(ids[3])
	s.Cancel(ids[7])
	s.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(got))
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("after RunUntil(100) ran %d events, want 4", len(got))
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %v, want 100", s.Now())
	}
}

func TestPerSecond(t *testing.T) {
	if got := PerSecond(1); got != Second {
		t.Fatalf("PerSecond(1) = %v, want 1s", got)
	}
	if got := PerSecond(14.88e6); got < 67*Nanosecond || got > 68*Nanosecond {
		t.Fatalf("PerSecond(14.88e6) = %v, want ~67ns", got)
	}
	if got := PerSecond(0); got <= 0 {
		t.Fatalf("PerSecond(0) = %v, want huge positive", got)
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Fatal("Duration(1ms) mismatch")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds mismatch")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(12345), NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded streams diverged at %d", i)
		}
	}
	c := NewRand(12346)
	same := 0
	a = NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(99)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / 100000
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(3)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.expFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("expFloat64 mean = %v, want ~1", mean)
	}
}

func TestRandParetoMinimum(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(1.2, 3.0); v < 3.0 {
			t.Fatalf("Pareto(1.2, 3) = %v below xm", v)
		}
	}
}

func TestRandIntnUnbiasedProperty(t *testing.T) {
	// Property: Intn(n) is always in range for arbitrary seeds and n.
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerializesWork(t *testing.T) {
	s := NewScheduler()
	sv := NewServer(s, nil)
	if done := sv.Charge(100); done != 100 {
		t.Fatalf("first charge done at %v, want 100", done)
	}
	if done := sv.Charge(50); done != 150 {
		t.Fatalf("second charge done at %v, want 150", done)
	}
	s.RunUntil(200)
	if sv.busyUntil > s.Now() {
		t.Fatal("server still busy after all work completed")
	}
	if done := sv.Charge(10); done != 210 {
		t.Fatalf("idle server charge done at %v, want 210", done)
	}
}

func TestServerChargeAndCall(t *testing.T) {
	s := NewScheduler()
	sv := NewServer(s, nil)
	var at Time
	sv.ChargeAndCall(75, func() { at = s.Now() })
	s.Run()
	if at != 75 {
		t.Fatalf("callback at %v, want 75", at)
	}
}

func TestCoreKernelShareSlowsServer(t *testing.T) {
	s := NewScheduler()
	core := NewCore()
	sv := NewServer(s, core)
	core.SetKernelShare(0.5)
	if done := sv.Charge(100); done != 200 {
		t.Fatalf("50%% kernel share: done at %v, want 200", done)
	}
	core.SetKernelShare(0)
	if done := sv.Charge(100); done != 300 {
		t.Fatalf("after share reset: done at %v, want 300", done)
	}
}

func TestCoreShareClamp(t *testing.T) {
	c := NewCore()
	c.SetKernelShare(2.0)
	if c.kernelShare > 0.95 {
		t.Fatalf("share %v not clamped", c.kernelShare)
	}
	c.SetKernelShare(-1)
	if c.kernelShare != 0 {
		t.Fatalf("negative share not clamped to 0")
	}
}

func TestNegativeChargeTreatedAsZero(t *testing.T) {
	s := NewScheduler()
	sv := NewServer(s, nil)
	if done := sv.Charge(-5); done != 0 {
		t.Fatalf("negative charge done at %v, want 0", done)
	}
}
