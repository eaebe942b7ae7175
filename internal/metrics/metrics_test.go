package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/vtime"
)

func TestSameNameAndLabelsShareInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("pkts", L("queue", "0"), L("nic", "1"))
	b := r.Counter("pkts", L("nic", "1"), L("queue", "0")) // order-insensitive
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter value = %d, want 3", b.Value())
	}
	if c := r.Counter("pkts", L("queue", "1"), L("nic", "1")); c == a {
		t.Fatal("distinct labels returned the same counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

func TestDuplicateLabelKeyPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label key did not panic")
		}
	}()
	r.Counter("m", L("q", "0"), L("q", "1"))
}

func TestCardinalityBound(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 4
	var within []*Counter
	for i := 0; i < 4; i++ {
		within = append(within, r.Counter("bounded", L("i", fmt.Sprint(i))))
	}
	over1 := r.Counter("bounded", L("i", "100"))
	over2 := r.Counter("bounded", L("i", "200"))
	if over1 != over2 {
		t.Fatal("past-the-bound registrations should share the overflow series")
	}
	for _, c := range within {
		if c == over1 {
			t.Fatal("in-bound counter aliases the overflow series")
		}
	}
	if d := dropped(r, "bounded"); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	over1.Add(7)
	snap := r.Snapshot(0)
	sv, ok := snap.Get("bounded", L(OverflowLabel, "true"))
	if !ok {
		t.Fatal("overflow series missing from snapshot")
	}
	if sv.Counter != 7 {
		t.Fatalf("overflow counter = %d, want 7", sv.Counter)
	}
	if got := len(snap.Series); got != 6 { // 4 in-bound + overflow + labels_overflowed
		t.Fatalf("snapshot has %d series, want 6", got)
	}
}

// TestLabelsOverflowed: a cardinality spill must be observable from the
// snapshot itself, not only via the registry's own count — operators reading
// an export need to know which families hit the bound and by how much.
func TestLabelsOverflowed(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 2
	if _, ok := r.Snapshot(0).Get(OverflowedMetric, L("metric", "hot")); ok {
		t.Fatal("labels_overflowed exists before any spill")
	}
	for i := 0; i < 5; i++ {
		r.Counter("hot", L("i", fmt.Sprint(i))).Inc()
	}
	snap := r.Snapshot(0)
	sv, ok := snap.Get(OverflowedMetric, L("metric", "hot"))
	if !ok {
		t.Fatal("labels_overflowed{metric=hot} missing after spill")
	}
	if sv.Counter != 3 { // 5 registered, bound 2
		t.Fatalf("labels_overflowed = %d, want 3", sv.Counter)
	}
	if d := dropped(r, "hot"); d != sv.Counter {
		t.Fatalf("dropped (%d) disagrees with labels_overflowed (%d)", d, sv.Counter)
	}
	// Collapsed combinations are not remembered, so a repeat lookup of one
	// counts again — labels_overflowed tracks the dropped count exactly, by design.
	r.Counter("hot", L("i", "3")).Inc()
	sv, _ = r.Snapshot(0).Get(OverflowedMetric, L("metric", "hot"))
	if d := dropped(r, "hot"); d != 4 || sv.Counter != d {
		t.Fatalf("after repeat lookup: dropped = %d, labels_overflowed = %d, want both 4", d, sv.Counter)
	}
}

// TestLabelsOverflowedSelfBound: when labels_overflowed itself hits the
// cardinality bound, its spills collapse into its own overflow series
// without recursing.
func TestLabelsOverflowedSelfBound(t *testing.T) {
	r := NewRegistry()
	r.maxSeries = 1
	// Each family needs two combinations to spill once; with bound 1 the
	// second registration overflows and mints one labels_overflowed series
	// per family name — the third family's spill overflows labels_overflowed.
	for f := 0; f < 3; f++ {
		name := fmt.Sprintf("fam%d", f)
		r.Counter(name, L("i", "0"))
		r.Counter(name, L("i", "1"))
	}
	if d := dropped(r, OverflowedMetric); d != 2 {
		t.Fatalf("labels_overflowed dropped = %d, want 2", d)
	}
	if _, ok := r.Snapshot(0).Get(OverflowedMetric, L(OverflowLabel, "true")); !ok {
		t.Fatal("labels_overflowed's own overflow series missing")
	}
}

// TestConcurrentRegistration exercises the registry's concurrency
// contract — registration is goroutine-safe, instrument updates belong to
// one goroutine each — the way the parallel experiment runner uses it.
// Run with -race to make it meaningful.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Registrations of shared names race benignly by design.
				c := r.Counter("shared", L("series", fmt.Sprint(i%16)))
				_ = c == nil
				// Updates touch only this worker's own series.
				r.Gauge("gauge", L("worker", fmt.Sprint(g))).Set(int64(i))
				r.Histogram("hist", L("worker", fmt.Sprint(g))).Record(int64(i))
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot(vtime.Time(1))
	var sharedSeries int
	for _, sv := range snap.Series {
		if sv.Name == "shared" {
			sharedSeries++
		}
	}
	if sharedSeries != 16 {
		t.Fatalf("shared has %d series, want 16", sharedSeries)
	}
	for g := 0; g < 8; g++ {
		sv, ok := snap.Get("hist", L("worker", fmt.Sprint(g)))
		if !ok || sv.Hist.Count != 200 {
			t.Fatalf("worker %d histogram missing or short: %+v", g, sv)
		}
	}
}

func buildSample() *Registry {
	r := NewRegistry()
	for q := 0; q < 3; q++ {
		c := r.Counter("rx_pkts", L("queue", fmt.Sprint(q)))
		c.Add(uint64(100 * (q + 1)))
		r.Gauge("ring_ready", L("queue", fmt.Sprint(q))).Set(int64(64 - q))
		h := r.Histogram("delay_ns", L("queue", fmt.Sprint(q)))
		for i := 0; i < 100; i++ {
			h.Record(int64(i * (q + 1)))
		}
	}
	q0 := 0
	r.CounterFunc("sampled", func() uint64 { return uint64(q0 + 42) }, L("kind", "func"))
	r.GaugeFunc("sampled_gauge", func() int64 { return 7 })
	return r
}

// TestSnapshotDeterminism: two identically constructed registries must
// export byte-identical JSON and text at the same virtual instant.
func TestSnapshotDeterminism(t *testing.T) {
	a, err := json.Marshal(buildSample().Snapshot(12345))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(buildSample().Snapshot(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("JSON snapshots diverge:\n%s\n%s", a, b)
	}
	var ta, tb bytes.Buffer
	if err := buildSample().Snapshot(12345).WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().Snapshot(12345).WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatalf("text snapshots diverge:\n%s\n%s", ta.String(), tb.String())
	}
}

func TestSnapshotSubAndTotals(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", L("q", "0"))
	c2 := r.Counter("n", L("q", "1"))
	g := r.Gauge("depth")
	h := r.Histogram("lat")
	c.Add(10)
	c2.Add(5)
	g.Set(3)
	h.Record(100)
	before := r.Snapshot(1000)
	c.Add(7)
	g.Set(9)
	h.Record(200)
	after := r.Snapshot(2000)
	d := after.Sub(before)
	if d.At != 2000 {
		t.Fatalf("diff At = %v", d.At)
	}
	if sv, _ := d.Get("n", L("q", "0")); sv.Counter != 7 {
		t.Fatalf("counter delta = %d, want 7", sv.Counter)
	}
	if sv, _ := d.Get("depth"); sv.Gauge != 9 {
		t.Fatalf("gauge in diff = %d, want current value 9", sv.Gauge)
	}
	if sv, _ := d.Get("lat"); sv.Hist.Count != 1 {
		t.Fatalf("histogram count delta = %d, want 1", sv.Hist.Count)
	}
	if total := after.CounterTotal("n"); total != 22 {
		t.Fatalf("CounterTotal = %d, want 22", total)
	}
}

// TestHotPathAllocs is the regression guard for the tentpole property:
// counter, gauge, and histogram updates must not allocate.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", L("q", "0"))
	g := r.Gauge("g", L("q", "0"))
	h := r.Histogram("h", L("q", "0"))
	if a := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		h.Record(12345)
	}); a > 0 {
		t.Errorf("hot-path updates allocate %.2f/op, want 0", a)
	}
}

// dropped returns how many distinct label combinations of name the
// cardinality bound collapsed into the overflow series.
func dropped(r *Registry, name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		return f.dropped
	}
	return 0
}
