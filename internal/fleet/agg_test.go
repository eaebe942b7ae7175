package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// TestAppendLedgerMatchesSprintf: every committed fleet digest hashes the
// fmt.Sprintf("%d|%d|%d|%d|%d;") rendering of each emitted packet, so
// appendLedger must reproduce those bytes exactly, extremes included.
func TestAppendLedgerMatchesSprintf(t *testing.T) {
	cases := []Packet{
		{},
		{TS: math.MaxInt64, Host: 5, Seq: math.MaxUint64, FlowSeq: math.MaxUint64, Len: 9000},
		{TS: 0, Host: 5, Seq: 0, FlowSeq: math.MaxUint64, Len: 0},
		{TS: math.MaxInt64, Host: 0, Seq: math.MaxUint64, FlowSeq: 0, Len: 9000},
		{TS: 123456789, Host: 3, Seq: 42, FlowSeq: 7, Len: 60},
		{TS: -1, Host: 1, Seq: 1, FlowSeq: 1, Len: 1259},
	}
	buf := []byte("stale prefix")
	for _, p := range cases {
		want := fmt.Sprintf("%d|%d|%d|%d|%d;", p.TS, p.Host, p.Seq, p.FlowSeq, p.Len)
		buf = appendLedger(buf[:0], p)
		if string(buf) != want {
			t.Errorf("appendLedger(%+v) = %q, want %q", p, buf, want)
		}
	}
}

// mergeHarness drives a bare aggregator with hand-built batches. Health
// scoring never quarantines (SuspectAfter is far beyond every timestamp),
// so the control plane stays idle and no ports are needed.
type mergeHarness struct {
	t   *testing.T
	a   *aggregator
	reg *metrics.Registry
	fed []Packet
	seq []uint64
}

func newMergeHarness(t *testing.T, hosts int) *mergeHarness {
	cfg := Config{Hosts: hosts, CollectFeed: true, SuspectAfter: vtime.Time(1) << 60}.withDefaults()
	a := newAggregator(&cfg, vtime.NewScheduler(), NewSteering(hosts), nil, &batchPool{size: cfg.BatchPackets})
	reg := metrics.NewRegistry()
	a.registerHealth(reg)
	return &mergeHarness{t: t, a: a, reg: reg, seq: make([]uint64, hosts)}
}

// batch delivers one batch from host h carrying the given capture
// timestamps, which must strictly increase per host like a FIFO link.
func (m *mergeHarness) batch(h int, ts ...vtime.Time) {
	pkts := make([]Packet, len(ts))
	for i, at := range ts {
		m.seq[h]++
		pkts[i] = Packet{Host: h, Seq: m.seq[h], FlowSeq: m.seq[h], TS: at, Len: 60}
	}
	m.fed = append(m.fed, pkts...)
	m.a.receive(ts[len(ts)-1], aggMsg{kind: msgBatch, host: h, pkts: pkts, watermark: ts[len(ts)-1]})
	m.checkGauge()
}

// checkGauge pins agg_buffered to what was fed and not yet emitted.
func (m *mergeHarness) checkGauge() {
	m.t.Helper()
	sv, _ := m.reg.Snapshot(0).Get("agg_buffered")
	if want := int64(len(m.fed) - len(m.a.feed)); sv.Gauge != want {
		m.t.Fatalf("agg_buffered = %d, want %d", sv.Gauge, want)
	}
}

// finish drains the aggregator and checks the feed against the oracle:
// every fed packet, sorted by (TS, host), with each host's own order
// kept for equal timestamps.
func (m *mergeHarness) finish() {
	m.t.Helper()
	m.a.finish(vtime.Time(1) << 61)
	m.checkGauge()
	want := append([]Packet(nil), m.fed...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].TS != want[j].TS {
			return want[i].TS < want[j].TS
		}
		return want[i].Host < want[j].Host
	})
	if m.a.staleRejected != 0 || m.a.lateMerges != 0 {
		m.t.Fatalf("stale %d, late %d; the batches were built to need neither",
			m.a.staleRejected, m.a.lateMerges)
	}
	if len(m.a.feed) != len(want) {
		m.t.Fatalf("feed has %d packets, want %d", len(m.a.feed), len(want))
	}
	for i := range want {
		if m.a.feed[i] != want[i] {
			m.t.Fatalf("feed[%d] = %+v, want %+v", i, m.a.feed[i], want[i])
		}
	}
}

// TestMergeBuffersReuseTheirArrays walks one host's merge buffer through
// both reuse branches by hand: the reset when a drain empties it, and
// the compaction when a batch lands on a full, half-merged array. The
// array must survive both without growing.
func TestMergeBuffersReuseTheirArrays(t *testing.T) {
	m := newMergeHarness(t, 2)
	a := m.a
	a.buf[0] = make([]Packet, 0, 4) // pin the capacity append would pick

	m.batch(1, 10)
	m.batch(0, 1, 2, 3, 4) // frontier 4: host 0 drains empty
	if len(a.buf[0]) != 0 || a.head[0] != 0 || cap(a.buf[0]) != 4 {
		t.Fatalf("after emptying: len %d head %d cap %d, want 0 0 4",
			len(a.buf[0]), a.head[0], cap(a.buf[0]))
	}
	arr := &a.buf[0][:1][0]

	m.batch(0, 11, 12, 13, 14) // refills the same array
	m.batch(1, 12)             // frontier 12: 11 and 12 leave host 0
	if a.head[0] != 2 || len(a.buf[0]) != 4 || cap(a.buf[0]) != 4 {
		t.Fatalf("before compaction: head %d len %d cap %d, want 2 4 4",
			a.head[0], len(a.buf[0]), cap(a.buf[0]))
	}

	m.batch(0, 15, 16) // full and half merged: compacts instead of growing
	if a.head[0] != 0 || len(a.buf[0]) != 4 || cap(a.buf[0]) != 4 || &a.buf[0][0] != arr {
		t.Fatalf("after compaction: head %d len %d cap %d, new array %v",
			a.head[0], len(a.buf[0]), cap(a.buf[0]), &a.buf[0][0] != arr)
	}
	m.finish()
}

// TestMergeMatchesSortOracle interleaves seeded batches from four hosts,
// so the merge takes cross-host ties, resets and compactions many times
// over, and checks the whole feed against the sort-based oracle. Each
// host's timestamps strictly increase, as a host's captures do: a
// watermark proves nothing at or below it is still to come from there.
func TestMergeMatchesSortOracle(t *testing.T) {
	const hosts = 4
	m := newMergeHarness(t, hosts)
	r := vtime.NewRand(99)
	next := make([]vtime.Time, hosts)
	resets, compactions := 0, 0
	for i := 0; i < 3000; i++ {
		h := r.Intn(hosts)
		ts := make([]vtime.Time, 1+r.Intn(6))
		for j := range ts {
			next[h] += vtime.Time(1 + r.Intn(3)) // hosts share timestamps
			ts[j] = next[h]
		}
		hd, b := m.a.head[h], m.a.buf[h]
		if hd > 0 && len(b) == cap(b) && 2*hd >= len(b) {
			compactions++
		}
		var had [hosts]int
		for k := range had {
			had[k] = len(m.a.buf[k]) - m.a.head[k]
		}
		m.batch(h, ts...)
		for k := range had {
			if had[k] > 0 && len(m.a.buf[k]) == 0 {
				resets++
			}
		}
	}
	if resets == 0 || compactions == 0 {
		t.Fatalf("resets %d, compactions %d: both branches must run", resets, compactions)
	}
	m.finish()
}

// TestRecycledBatchesArePoisoned overwrites every batch array with a
// sentinel the moment it goes back on the free list. A run whose books,
// digest or feed change under the poison read a packet through an alias
// that outlived its batch. The host-kill storm recycles on receive and
// on crash; a partition outlasting the retry budget adds head drops.
func TestRecycledBatchesArePoisoned(t *testing.T) {
	storm := Config{
		Hosts: 6, Packets: 30_000, Flows: 256, Seed: 7, CollectFeed: true,
		Faults: faults.Schedule{
			{Kind: faults.HostCrash, NIC: 1, At: 5 * vtime.Millisecond},
			{Kind: faults.HostCrash, NIC: 4, At: 12 * vtime.Millisecond, Dur: 8 * vtime.Millisecond},
			{Kind: faults.AggLinkDown, NIC: 2, At: 8 * vtime.Millisecond, Dur: 600 * vtime.Microsecond},
		},
	}
	partition := testConfig()
	partition.MaxAttempts = 2 // give up on the head batch within the window
	partition.Faults = faults.Schedule{
		{Kind: faults.AggLinkDown, NIC: 1, At: 2 * vtime.Millisecond, Dur: 4 * vtime.Millisecond},
	}
	// Far-future stamps and an impossible host, so a stale read moves the
	// merge frontier or indexes out of range rather than passing quietly.
	poison := Packet{Host: -1, FlowSeq: math.MaxUint64, Seq: math.MaxUint64, TS: vtime.Time(1) << 61, Len: -1}
	for _, tc := range []struct {
		name string
		cfg  Config
		lost func(Report) uint64 // the drop path the case must exercise
	}{
		{"host_kill_storm", storm, func(r Report) uint64 { return r.HostLost }},
		{"retry_exhaustion", partition, func(r Report) uint64 { return r.InFlightDropped - r.StaleRejected }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, err := Run(tc.name, tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			recycled := 0
			onRecycle = func(b []Packet) {
				recycled++
				for i := range b {
					b[i] = poison
				}
			}
			t.Cleanup(func() { onRecycle = nil })
			poisoned, err := Run(tc.name, tc.cfg)
			if err != nil {
				t.Fatalf("poisoned Run: %v", err)
			}
			if recycled == 0 || tc.lost(clean.Report) == 0 {
				t.Fatalf("recycled %d arrays, lost %d packets: the case must recycle on a drop path",
					recycled, tc.lost(clean.Report))
			}
			if !reflect.DeepEqual(poisoned.Report, clean.Report) {
				t.Fatalf("poison changed the report:\n clean    %+v\n poisoned %+v", clean.Report, poisoned.Report)
			}
			if !reflect.DeepEqual(poisoned.Feed, clean.Feed) {
				t.Fatal("poison changed the feed")
			}
		})
	}
}
