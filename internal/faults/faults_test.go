package faults

import (
	"errors"
	"testing"

	"repro/internal/vtime"
)

// mustInstall installs a schedule that the test knows is valid.
func mustInstall(t *testing.T, inj *Injector, sch Schedule) {
	t.Helper()
	if err := inj.Install(sch); err != nil {
		t.Fatalf("Install: %v", err)
	}
}

func TestWindowsOpenAndClose(t *testing.T) {
	s := vtime.NewScheduler()
	inj := NewInjector(s, 1)
	mustInstall(t, inj, Schedule{
		{At: 10, Dur: 20, Kind: QueueHang, NIC: 0, Queue: 1},
		{At: 15, Dur: 10, Kind: LinkFlap, NIC: 0},
		{At: 40, Dur: 5, Kind: DescStall, NIC: 0, Queue: 0},
	})

	type probe struct {
		at               vtime.Time
		hung, down, stal bool
	}
	probes := []probe{
		{at: 5}, {at: 12, hung: true}, {at: 16, hung: true, down: true},
		{at: 26, hung: true}, {at: 31}, {at: 42, stal: true}, {at: 50},
	}
	for _, p := range probes {
		p := p
		s.At(p.at, func() {
			if got := inj.QueueHung(0, 1); got != p.hung {
				t.Errorf("t=%d QueueHung = %v, want %v", p.at, got, p.hung)
			}
			if got := !inj.LinkUp(0); got != p.down {
				t.Errorf("t=%d link down = %v, want %v", p.at, got, p.down)
			}
			if got := inj.DescStalled(0, 0); got != p.stal {
				t.Errorf("t=%d DescStalled = %v, want %v", p.at, got, p.stal)
			}
		})
	}
	s.Run()
	if !inj.Quiet() {
		t.Fatal("injector not Quiet after all windows closed")
	}
	if inj.injected[QueueHang] != 1 || inj.injected[LinkFlap] != 1 || inj.injected[DescStall] != 1 {
		t.Fatalf("injected counters wrong: %v %v %v",
			inj.injected[QueueHang], inj.injected[LinkFlap], inj.injected[DescStall])
	}
}

func TestOverlappingWindows(t *testing.T) {
	s := vtime.NewScheduler()
	inj := NewInjector(s, 1)
	mustInstall(t, inj, Schedule{
		{At: 10, Dur: 30, Kind: AllocFail, NIC: 2, Queue: 0},
		{At: 20, Dur: 10, Kind: AllocFail, NIC: 2, Queue: 0},
	})
	// The inner window closing at t=30 must not clear the outer one.
	s.At(35, func() {
		if !inj.AllocFails(2, 0) {
			t.Error("outer AllocFail window cleared by inner close")
		}
	})
	s.At(45, func() {
		if inj.AllocFails(2, 0) {
			t.Error("AllocFail still active after outer window closed")
		}
	})
	s.Run()
}

func TestPermanentFaultsSettleQuiet(t *testing.T) {
	s := vtime.NewScheduler()
	inj := NewInjector(s, 1)
	mustInstall(t, inj, Schedule{
		{At: 10, Kind: QueueHang, NIC: 0, Queue: 0}, // Dur 0 = permanent
		{At: 20, Kind: HandlerCrash, NIC: 0, Queue: 1, Dur: 99},
	})
	if inj.Quiet() {
		t.Fatal("Quiet before schedule ran")
	}
	s.Run()
	if !inj.Quiet() {
		t.Fatal("permanent faults should not keep the injector un-quiet")
	}
	if !inj.QueueHung(0, 0) {
		t.Fatal("permanent hang not sticky")
	}
	if !inj.HandlerCrashed(0, 1) {
		t.Fatal("crash not sticky (Dur must be ignored for crashes)")
	}
}

func TestHandlerStallNormalization(t *testing.T) {
	s := vtime.NewScheduler()
	inj := NewInjector(s, 1)
	mustInstall(t, inj, Schedule{
		{At: 5, Dur: 0, Kind: HandlerStall, NIC: 0, Queue: 0}, // => crash
		{At: 5, Dur: 20, Kind: HandlerStall, NIC: 0, Queue: 1},
	})
	s.At(10, func() {
		if !inj.HandlerCrashed(0, 0) {
			t.Error("zero-duration stall should normalize to crash")
		}
		until, ok := inj.HandlerStalled(0, 1)
		if !ok || until != 25 {
			t.Errorf("HandlerStalled = (%d, %v), want (25, true)", until, ok)
		}
	})
	s.At(30, func() {
		if _, ok := inj.HandlerStalled(0, 1); ok {
			t.Error("stall window should have expired")
		}
	})
	s.Run()
}

func TestCorruptFrameDeterministicAndWindowed(t *testing.T) {
	run := func() (hits int, mutated []byte) {
		s := vtime.NewScheduler()
		inj := NewInjector(s, 42)
		mustInstall(t, inj, Schedule{{At: 10, Dur: 100, Kind: DMACorrupt, NIC: 0, Queue: 0, Severity: 0.5}})
		frame := make([]byte, 64)
		s.At(5, func() {
			if inj.CorruptFrame(0, 0, frame) {
				t.Error("corruption outside window")
			}
		})
		s.At(50, func() {
			for i := 0; i < 100; i++ {
				if inj.CorruptFrame(0, 0, frame) {
					hits++
				}
			}
			mutated = append(mutated, frame...)
		})
		s.Run()
		return hits, mutated
	}
	h1, f1 := run()
	h2, f2 := run()
	if h1 == 0 || h1 == 100 {
		t.Fatalf("severity 0.5 should corrupt some but not all frames; got %d/100", h1)
	}
	if h1 != h2 || string(f1) != string(f2) {
		t.Fatalf("corruption not deterministic: %d vs %d hits", h1, h2)
	}
}

func TestNilInjectorIsNoFault(t *testing.T) {
	var inj *Injector
	if !inj.LinkUp(0) || inj.QueueHung(0, 0) || inj.DescStalled(0, 0) ||
		inj.AllocFails(0, 0) || inj.HandlerCrashed(0, 0) || !inj.Quiet() {
		t.Fatal("nil injector must report no faults")
	}
	if inj.CorruptFrame(0, 0, []byte{1}) {
		t.Fatal("nil injector corrupted a frame")
	}
	if got := inj.HandlerSlowdown(0, 0); got != 1 {
		t.Fatalf("nil HandlerSlowdown = %v, want 1", got)
	}
	if _, ok := inj.HandlerStalled(0, 0); ok {
		t.Fatal("nil injector reports a stall")
	}
}

func TestOnActivateFiresPerWindow(t *testing.T) {
	s := vtime.NewScheduler()
	inj := NewInjector(s, 1)
	n := 0
	inj.OnActivate(func() { n++ })
	mustInstall(t, inj, Schedule{
		{At: 1, Dur: 5, Kind: QueueHang},
		{At: 2, Dur: 5, Kind: LinkFlap},
		{At: 3, Kind: HandlerCrash},
	})
	s.Run()
	if n != 3 {
		t.Fatalf("OnActivate fired %d times, want 3", n)
	}
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name    string
		sch     Schedule
		wantErr bool
	}{
		{"empty", Schedule{}, false},
		{"disjoint same target",
			Schedule{
				{At: 10, Dur: 10, Kind: DMACorrupt, NIC: 0, Queue: 0},
				{At: 20, Dur: 10, Kind: DMACorrupt, NIC: 0, Queue: 0},
			}, false},
		{"overlap corrupt same target",
			Schedule{
				{At: 10, Dur: 20, Kind: DMACorrupt, NIC: 0, Queue: 0},
				{At: 15, Dur: 10, Kind: DMACorrupt, NIC: 0, Queue: 0},
			}, true},
		{"overlap corrupt different queue",
			Schedule{
				{At: 10, Dur: 20, Kind: DMACorrupt, NIC: 0, Queue: 0},
				{At: 15, Dur: 10, Kind: DMACorrupt, NIC: 0, Queue: 1},
			}, false},
		{"overlap slow same target",
			Schedule{
				{At: 5, Dur: 50, Kind: HandlerSlow, NIC: 1, Queue: 2, Severity: 2},
				{At: 30, Dur: 50, Kind: HandlerSlow, NIC: 1, Queue: 2, Severity: 8},
			}, true},
		{"overlap brownout same host ignores queue",
			Schedule{
				{At: 5, Dur: 50, Kind: HostBrownout, NIC: 3, Queue: 0},
				{At: 30, Dur: 50, Kind: HostBrownout, NIC: 3, Queue: 7},
			}, true},
		{"overlap brownout different host",
			Schedule{
				{At: 5, Dur: 50, Kind: HostBrownout, NIC: 3},
				{At: 30, Dur: 50, Kind: HostBrownout, NIC: 4},
			}, false},
		{"permanent shadow-prone overlaps everything later",
			Schedule{
				{At: 10, Kind: HandlerSlow, NIC: 0, Queue: 0}, // Dur 0 = forever
				{At: 500, Dur: 5, Kind: HandlerSlow, NIC: 0, Queue: 0},
			}, true},
		{"count-based kinds may overlap",
			Schedule{
				{At: 10, Dur: 30, Kind: AllocFail, NIC: 0, Queue: 0},
				{At: 20, Dur: 30, Kind: AllocFail, NIC: 0, Queue: 0},
				{At: 10, Dur: 30, Kind: QueueHang, NIC: 0, Queue: 0},
				{At: 20, Dur: 30, Kind: QueueHang, NIC: 0, Queue: 0},
				{At: 10, Dur: 30, Kind: HostCrash, NIC: 0},
				{At: 20, Dur: 30, Kind: AggLinkDown, NIC: 0},
			}, false},
		{"touching windows do not overlap",
			Schedule{
				{At: 10, Dur: 10, Kind: HostBrownout, NIC: 0},
				{At: 20, Dur: 10, Kind: HostBrownout, NIC: 0},
			}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sch.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil {
				var oe *OverlapError
				if !errors.As(err, &oe) {
					t.Fatalf("error is %T, want *OverlapError", err)
				}
				if oe.Error() == "" {
					t.Fatal("empty error string")
				}
			}
			// Install must agree with Validate.
			s := vtime.NewScheduler()
			inj := NewInjector(s, 1)
			if ierr := inj.Install(tc.sch); (ierr != nil) != tc.wantErr {
				t.Fatalf("Install() = %v, wantErr %v", ierr, tc.wantErr)
			}
		})
	}
}

func TestHostFaultQueries(t *testing.T) {
	s := vtime.NewScheduler()
	inj := NewInjector(s, 1)
	var opens, closes []Kind
	inj.OnTransition(func(ev Event, open bool) {
		if open {
			opens = append(opens, ev.Kind)
		} else {
			closes = append(closes, ev.Kind)
		}
	})
	mustInstall(t, inj, Schedule{
		{At: 10, Dur: 20, Kind: HostCrash, NIC: 1},   // restart at 30
		{At: 10, Kind: HostCrash, NIC: 2},            // permanent kill
		{At: 15, Dur: 10, Kind: AggLinkDown, NIC: 0}, // partition
		{At: 15, Dur: 10, Kind: HostBrownout, NIC: 0, Severity: 3},
	})
	s.At(20, func() {
		if !inj.HostDown(1) || !inj.HostDown(2) || inj.HostDown(0) {
			t.Error("HostDown wrong inside windows")
		}
		// A crashed host takes its NIC link down (host id == NIC id).
		if inj.LinkUp(1) || inj.LinkUp(2) || !inj.LinkUp(0) {
			t.Error("LinkUp must reflect host crashes")
		}
		if inj.AggLinkUp(0) || !inj.AggLinkUp(1) {
			t.Error("AggLinkUp wrong inside partition window")
		}
		if got := inj.HostSlowdown(0); got != 3 {
			t.Errorf("HostSlowdown = %v, want 3", got)
		}
		if got := inj.HostSlowdown(1); got != 1 {
			t.Errorf("HostSlowdown(1) = %v, want 1", got)
		}
	})
	s.At(40, func() {
		if inj.HostDown(1) {
			t.Error("host 1 should have restarted at t=30")
		}
		if !inj.HostDown(2) {
			t.Error("permanent kill should be sticky")
		}
		if !inj.AggLinkUp(0) || inj.HostSlowdown(0) != 1 {
			t.Error("host 0 windows should have closed")
		}
	})
	s.Run()
	if !inj.Quiet() {
		t.Fatal("injector not Quiet after schedule drained")
	}
	if len(opens) != 4 {
		t.Fatalf("OnTransition opens = %d, want 4", len(opens))
	}
	// Only the three bounded windows close; the permanent kill never does.
	if len(closes) != 3 {
		t.Fatalf("OnTransition closes = %d, want 3", len(closes))
	}
	if inj.injected[HostCrash] != 2 || inj.injected[AggLinkDown] != 1 || inj.injected[HostBrownout] != 1 {
		t.Fatal("host-kind injected counters wrong")
	}
}

func TestNilInjectorHostQueries(t *testing.T) {
	var inj *Injector
	if inj.HostDown(0) || !inj.AggLinkUp(0) || inj.HostSlowdown(0) != 1 {
		t.Fatal("nil injector must report no host faults")
	}
}

func TestRandomScheduleHostKindsValidate(t *testing.T) {
	cfg := RandomConfig{
		NICs: 4, Queues: 2, Events: 64,
		Kinds: []Kind{HostCrash, AggLinkDown, HostBrownout, DMACorrupt, HandlerSlow},
	}
	sch := RandomSchedule(7, cfg)
	if err := sch.Validate(); err != nil {
		t.Fatalf("RandomSchedule emitted an invalid schedule: %v", err)
	}
	if len(sch) == 0 {
		t.Fatal("empty schedule")
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	cfg := RandomConfig{NICs: 2, Queues: 4, Events: 16}
	a := RandomSchedule(99, cfg)
	b := RandomSchedule(99, cfg)
	if len(a) != 16 {
		t.Fatalf("got %d events, want 16", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := RandomSchedule(100, cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, ev := range a {
		if ev.At <= 0 || ev.Dur <= 0 || ev.NIC >= 2 || ev.Queue >= 4 {
			t.Fatalf("out-of-range event: %v", ev)
		}
	}
}
