// Package metrics is the simulator's observability layer: a registry of
// named counters, gauges, and log-bucketed histograms with label support
// for per-NIC/per-queue/per-engine dimensions.
//
// The package is built for the simulator's constraints:
//
//   - The hot path allocates nothing. Registration (Counter, Gauge,
//     Histogram) happens at construction time and returns a pointer whose
//     update methods are plain field operations — no maps, no interface
//     boxing, no atomics (a simulation run is single-threaded by design;
//     see internal/vtime).
//   - Registration itself is safe for concurrent use, because the
//     experiment harness builds many independent simulations in parallel
//     worker goroutines and libraries may share a registry while setting
//     up.
//   - Observation is pull-based and deterministic: a Snapshot taken at a
//     virtual-time instant renders every series in sorted order, so two
//     identical runs produce byte-identical exports — the property the
//     CI regression gate (cmd/ci-gate) is built on.
//   - Series cardinality is bounded per metric name. Past the bound, new
//     label combinations collapse into a shared overflow series instead of
//     growing memory without limit.
//
// Components that already keep counters for simulation logic (the NIC's
// ring stats, WireCAP's chunk accounting) export them through CounterFunc
// and GaugeFunc, which sample the source only at snapshot time and cost
// the hot path nothing at all.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Kind discriminates the metric types a name can be registered as.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Label is one dimension of a series, e.g. {queue 3}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. Updates are plain integer
// operations: the hot path performs no allocation and no synchronization.
type Counter struct {
	v uint64
}

// Inc adds one.
//
//wirecap:hotpath
func (c *Counter) Inc() { c.v++ }

// Add adds n.
//
//wirecap:hotpath
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level that can move both ways.
type Gauge struct {
	v int64
}

// Set replaces the gauge value.
//
//wirecap:hotpath
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a log-bucketed distribution built on stats.Histogram:
// constant-time, allocation-free recording with ~3% relative error on
// percentile queries.
type Histogram struct {
	h stats.Histogram
}

// Record adds one sample.
//
//wirecap:hotpath
func (h *Histogram) Record(v int64) { h.h.Record(v) }

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.h.Count() }

// Percentile estimates the q-quantile.
func (h *Histogram) Percentile(q float64) int64 { return h.h.Percentile(q) }

// DefaultMaxSeries bounds the number of distinct label combinations per
// metric name; combinations past the bound share one overflow series.
const DefaultMaxSeries = 1024

// OverflowLabel marks the shared series that absorbs label combinations
// rejected by the cardinality bound.
const OverflowLabel = "overflow"

// OverflowedMetric is the counter family that makes cardinality spills
// observable: labels_overflowed{metric=<family>} counts every distinct
// label combination the bound collapsed into that family's overflow
// series. The series exists only once a spill has happened, so
// registries that never overflow export exactly what they did before.
const OverflowedMetric = "labels_overflowed"

// series is one (name, labels) combination and its instrument. Exactly
// one of the instrument fields is non-nil, matching the family's kind.
type series struct {
	labels []Label // sorted by key
	key    string  // canonical label encoding

	c  *Counter
	g  *Gauge
	h  *Histogram
	cf func() uint64
	gf func() int64
}

// family is every series registered under one metric name.
type family struct {
	name     string
	kind     Kind
	byKey    map[string]*series
	ordered  []*series
	overflow *series // shared past-the-bound series, created on demand
	dropped  uint64  // distinct combinations collapsed into overflow
}

// Registry holds metric families. The zero value is not ready; use
// NewRegistry. Registration and snapshotting are safe for concurrent use;
// updating a registered instrument is not (one simulation run is one
// goroutine — concurrent runs use separate registries).
type Registry struct {
	mu        sync.Mutex
	maxSeries int
	families  map[string]*family
}

// NewRegistry returns an empty registry with the default cardinality
// bound.
func NewRegistry() *Registry {
	return &Registry{maxSeries: DefaultMaxSeries, families: make(map[string]*family)}
}

// canonicalize validates and sorts labels, returning the sorted copy and
// its canonical key encoding.
func canonicalize(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if l.Key == "" {
			panic("metrics: empty label key")
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("metrics: duplicate label key %q", l.Key))
		}
		sb.WriteString(l.Key)
		sb.WriteByte(1)
		sb.WriteString(l.Value)
		sb.WriteByte(2)
	}
	return ls, sb.String()
}

// lookup returns the series for (name, labels), creating it if absent.
// Creation past the cardinality bound returns the family's shared
// overflow series.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *series {
	if name == "" {
		panic("metrics: empty metric name")
	}
	ls, key := canonicalize(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(name, kind, ls, key)
}

// lookupLocked is lookup's body, split out so the overflow branch can
// register the spill counter under the already-held lock.
func (r *Registry) lookupLocked(name string, kind Kind, ls []Label, key string) *series {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	if s, ok := f.byKey[key]; ok {
		return s
	}
	if len(f.ordered) >= r.maxSeries {
		f.dropped++
		if name != OverflowedMetric {
			// Make the spill observable. Guarded against recursing on
			// itself: if labels_overflowed ever hits the bound, its spills
			// land in its own overflow series without another hop.
			ols, okey := canonicalize([]Label{{Key: "metric", Value: name}})
			r.lookupLocked(OverflowedMetric, KindCounter, ols, okey).c.Inc()
		}
		if f.overflow == nil {
			ols, okey := canonicalize([]Label{{Key: OverflowLabel, Value: "true"}})
			f.overflow = newSeries(kind, ols)
			f.overflow.key = okey
		}
		return f.overflow
	}
	s := newSeries(kind, ls)
	s.key = key
	f.byKey[key] = s
	f.ordered = append(f.ordered, s)
	return s
}

func newSeries(kind Kind, labels []Label) *series {
	s := &series{labels: labels}
	switch kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = &Histogram{}
	}
	return s
}

// Counter returns the counter for (name, labels), registering it on first
// use. The same name and labels always return the same instance.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the histogram for (name, labels), registering it on
// first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, KindHistogram, labels).h
}

// CounterFunc registers a counter series whose value is sampled from fn
// at snapshot time. It is the zero-hot-path-cost bridge for components
// that already maintain counters for simulation logic. Re-registering the
// same (name, labels) replaces the function.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	if fn == nil {
		panic("metrics: nil CounterFunc")
	}
	s := r.lookup(name, KindCounter, labels)
	r.mu.Lock()
	s.cf = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge series sampled from fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	if fn == nil {
		panic("metrics: nil GaugeFunc")
	}
	s := r.lookup(name, KindGauge, labels)
	r.mu.Lock()
	s.gf = fn
	r.mu.Unlock()
}
