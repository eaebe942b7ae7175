package bus

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

func TestUnlimitedNeverRejects(t *testing.T) {
	b := Unlimited()
	for i := 0; i < 1000; i++ {
		if !b.TryTransfer(0, 1<<20, 0) {
			t.Fatal("unlimited bus rejected a transfer")
		}
	}
	st := b.Stats()
	if st.Transfers != 1000 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRateEnforced(t *testing.T) {
	// 1000 bytes/s, 100-byte burst: at t=0 only the burst fits.
	b := New(Config{BytesPerSec: 1000, BurstBytes: 100})
	if !b.TryTransfer(0, 100, 0) {
		t.Fatal("burst transfer rejected")
	}
	if b.TryTransfer(0, 1, 0) {
		t.Fatal("transfer beyond burst accepted at t=0")
	}
	// After 50 ms, 50 bytes of budget have accrued.
	now := 50 * vtime.Millisecond
	if !b.TryTransfer(now, 50, 0) {
		t.Fatal("accrued budget rejected")
	}
	if b.TryTransfer(now, 1, 0) {
		t.Fatal("over-budget transfer accepted")
	}
	if got := b.Stats().Rejected; got != 2 {
		t.Fatalf("rejected = %d", got)
	}
}

func TestBurstCapped(t *testing.T) {
	b := New(Config{BytesPerSec: 1e6, BurstBytes: 500})
	// A long idle period must not accumulate more than the burst.
	if !b.TryTransfer(10*vtime.Second, 500, 0) {
		t.Fatal("full burst rejected after idle")
	}
	if b.TryTransfer(10*vtime.Second, 500, 0) {
		t.Fatal("double burst accepted after idle")
	}
}

func TestOverheadsCharged(t *testing.T) {
	b := New(Config{BytesPerSec: 1000, BurstBytes: 100, PerTransferOverhead: 30})
	// Payload 50 + overhead 30 = 80 <= 100.
	if !b.TryTransfer(0, 50, 0) {
		t.Fatal("transfer with overhead rejected")
	}
	// Remaining 20 tokens cannot carry payload 0 + overhead 30.
	if b.TryTransfer(0, 0, 0) {
		t.Fatal("overhead-only transfer accepted beyond budget")
	}
}

func TestExtraOverheadAndPagePenalty(t *testing.T) {
	b := New(Config{BytesPerSec: 1000, BurstBytes: 100, PagePenaltyBytes: 40})
	if !b.TryTransfer(0, 30, 20) { // 30+40+20 = 90
		t.Fatal("rejected within budget")
	}
	if b.TryTransfer(0, 0, 0) { // 0+40 = 40 > 10 remaining
		t.Fatal("page penalty not charged")
	}
}

func TestThroughputConvergesToRate(t *testing.T) {
	// Offer 2x the configured rate and check accepted throughput ~= rate.
	const rate = 1e6 // bytes/s
	b := New(Config{BytesPerSec: rate, BurstBytes: 1000})
	const pkt = 100
	interval := vtime.PerSecond(2 * rate / pkt) // 2x offered load
	var accepted int
	var now vtime.Time
	const dur = vtime.Second
	for now = 0; now < dur; now += interval {
		if b.TryTransfer(now, pkt, 0) {
			accepted++
		}
	}
	got := float64(accepted*pkt) / dur.Seconds()
	if got < 0.95*rate || got > 1.05*rate {
		t.Fatalf("accepted throughput %.0f B/s, want ~%.0f", got, float64(rate))
	}
}

func TestRegisterExportsCountersWithConservation(t *testing.T) {
	// A saturating schedule: offer 3x the configured rate so a large
	// fraction of transfers is rejected, then check both the exported
	// series and the byte-accounting conservation law.
	const (
		rate     = 1e6 // bytes/s
		overhead = 90
		penalty  = 16
		pkt      = 100
	)
	b := New(Config{BytesPerSec: rate, BurstBytes: 1000, PerTransferOverhead: overhead, PagePenaltyBytes: penalty})
	reg := metrics.NewRegistry()
	b.Register(reg, metrics.L("link", "host0"))

	interval := vtime.PerSecond(3 * rate / pkt)
	var payload, extra uint64
	var now vtime.Time
	for now = 0; now < vtime.Second; now += interval {
		ex := int(now/interval) % 3 // vary the caller-charged overhead
		if b.TryTransfer(now, pkt, ex) {
			payload += pkt
			extra += uint64(ex)
		}
	}
	st := b.Stats()
	if st.Rejected == 0 {
		t.Fatal("saturating schedule rejected nothing")
	}
	if st.Transfers == 0 {
		t.Fatal("saturating schedule accepted nothing")
	}
	// Conservation: every accepted transfer's bytes decompose exactly
	// into payload + per-transfer overheads + caller extras. Rejected
	// transfers consume nothing.
	want := payload + st.Transfers*uint64(overhead+penalty) + extra
	if st.Bytes != want {
		t.Fatalf("Bytes = %d, want payload %d + transfers %d * %d + extra %d = %d",
			st.Bytes, payload, st.Transfers, overhead+penalty, extra, want)
	}

	snap := reg.Snapshot(now)
	link := metrics.L("link", "host0")
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"wirecap_bus_transfers_total", st.Transfers},
		{"wirecap_bus_bytes_total", st.Bytes},
		{"wirecap_bus_rejected_total", st.Rejected},
	} {
		sv, ok := snap.Get(c.name, link)
		if !ok {
			t.Fatalf("series %s not exported", c.name)
		}
		if sv.Counter != c.want {
			t.Fatalf("%s = %d, want %d", c.name, sv.Counter, c.want)
		}
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	Unlimited().TryTransfer(0, -1, 0)
}
