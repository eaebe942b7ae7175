package obs

import (
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

// This file is the deterministic health time-series (DESIGN.md §14): a
// virtual-clock interval sampler over a private metrics.Registry,
// producing a bounded ring of per-interval deltas via
// metrics.Snapshot/Sub.
//
// Determinism argument: the sampler schedules nothing. It is driven
// entirely by Observe(now) calls placed at the head of the events that
// mutate the sampled counters, and flushes every interval that ended
// strictly before now's interval — so by the time interval i is
// flushed, every mutation timestamped inside it has been applied and no
// later mutation has. Because each lane samples a registry owned by a
// single simulation actor (one host, or the aggregator), the counter
// values at each interval boundary are a pure function of that actor's
// event history, which the mailbox executive's canonical order fixes —
// the series is byte-identical run to run, and ci-gate gates it. A timer-driven sampler would instead extend the
// event queue and perturb run end times; this one cannot.

// HealthValue is one nonzero series delta inside an interval. Counter
// and histogram-count series carry the interval delta; gauges carry the
// value observed at the interval's flush.
type HealthValue struct {
	Name string `json:"name"`
	V    int64  `json:"v"`
}

// HealthDelta is one interval's observations. Intervals with no nonzero
// values are elided, so Index is explicit and may be sparse.
type HealthDelta struct {
	Index  int           `json:"interval"`
	EndNs  vtime.Time    `json:"end_ns"`
	Values []HealthValue `json:"values"`
}

// HealthSeries is one lane's full time-series: a host ("host3"), the
// aggregator ("agg"), or the fleet-wide sum ("fleet").
type HealthSeries struct {
	Lane       string        `json:"lane"`
	IntervalNs vtime.Time    `json:"interval_ns"`
	Deltas     []HealthDelta `json:"deltas"`
	// DroppedIntervals counts deltas evicted from the bounded ring
	// (oldest first) when a run outlives MaxIntervals.
	DroppedIntervals uint64 `json:"dropped_intervals,omitempty"`
}

// HealthSampler produces one lane's HealthSeries. A nil *HealthSampler
// is a valid disabled sampler: Observe and Finish are free no-ops, the
// same contract as a nil *Recorder.
type HealthSampler struct {
	lane     string
	reg      *metrics.Registry
	interval vtime.Time
	max      int

	prev    metrics.Snapshot
	cursor  int // next interval index to flush
	deltas  []HealthDelta
	dropped uint64
}

// NewHealthSampler builds a sampler over reg with the given interval
// (default 250µs) keeping at most maxIntervals deltas (default 4096).
func NewHealthSampler(lane string, reg *metrics.Registry, interval vtime.Time, maxIntervals int) *HealthSampler {
	if interval <= 0 {
		interval = 250 * vtime.Microsecond
	}
	if maxIntervals <= 0 {
		maxIntervals = 4096
	}
	return &HealthSampler{lane: lane, reg: reg, interval: interval, max: maxIntervals}
}

// Observe flushes every interval that ended at or before now's
// interval start. Call it at the head of every event that mutates the
// sampled counters; mutations the event applies afterward land in
// now's own (still-open) interval.
func (s *HealthSampler) Observe(now vtime.Time) {
	if s == nil {
		return
	}
	b := int(now / s.interval)
	for s.cursor < b {
		s.flush()
	}
}

// Finish flushes through the interval containing end (the run's global
// virtual end time), closing the final partial interval.
func (s *HealthSampler) Finish(end vtime.Time) {
	if s == nil {
		return
	}
	b := int(end/s.interval) + 1
	for s.cursor < b {
		s.flush()
	}
}

// flush closes interval s.cursor: snapshot, subtract the previous
// boundary snapshot, keep the nonzero values.
func (s *HealthSampler) flush() {
	end := vtime.Time(s.cursor+1) * s.interval
	cur := s.reg.Snapshot(end)
	d := cur.Sub(s.prev)
	s.prev = cur
	hd := HealthDelta{Index: s.cursor, EndNs: end}
	s.cursor++
	for _, sv := range d.Series {
		var v int64
		switch sv.Kind {
		case metrics.KindCounter.String():
			v = int64(sv.Counter)
		case metrics.KindGauge.String():
			v = sv.Gauge
		case metrics.KindHistogram.String():
			if sv.Hist != nil {
				v = int64(sv.Hist.Count)
			}
		}
		if v == 0 {
			continue
		}
		hd.Values = append(hd.Values, HealthValue{Name: sv.Name + healthLabels(sv.Labels), V: v})
	}
	if len(hd.Values) == 0 {
		return // elide empty intervals; Index keeps the axis honest
	}
	if len(s.deltas) >= s.max {
		s.deltas = s.deltas[1:]
		s.dropped++
	}
	s.deltas = append(s.deltas, hd)
}

// Series freezes the sampler's output.
func (s *HealthSampler) Series() HealthSeries {
	if s == nil {
		return HealthSeries{}
	}
	return HealthSeries{
		Lane: s.lane, IntervalNs: s.interval,
		Deltas: s.deltas, DroppedIntervals: s.dropped,
	}
}

// healthLabels renders a label map in canonical sorted {k=v,...} form.
func healthLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// MergeHealth sums per-lane series into one lane (the fleet-wide view):
// values with the same (interval, name) add across lanes. Every input
// must share the interval length. Deterministic: sorted by
// (interval, name).
func MergeHealth(lane string, lanes []HealthSeries) HealthSeries {
	out := HealthSeries{Lane: lane}
	type key struct {
		interval int
		name     string
	}
	sums := make(map[key]int64)
	ends := make(map[int]vtime.Time)
	for _, l := range lanes {
		if out.IntervalNs == 0 {
			out.IntervalNs = l.IntervalNs
		}
		out.DroppedIntervals += l.DroppedIntervals
		for _, d := range l.Deltas {
			ends[d.Index] = d.EndNs
			for _, v := range d.Values {
				sums[key{d.Index, v.Name}] += v.V
			}
		}
	}
	keys := make([]key, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].interval != keys[j].interval {
			return keys[i].interval < keys[j].interval
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		n := len(out.Deltas)
		if n == 0 || out.Deltas[n-1].Index != k.interval {
			out.Deltas = append(out.Deltas, HealthDelta{Index: k.interval, EndNs: ends[k.interval]})
			n++
		}
		out.Deltas[n-1].Values = append(out.Deltas[n-1].Values, HealthValue{Name: k.name, V: sums[k]})
	}
	return out
}

// Value fetches one named value from a delta, 0 when absent.
func (d *HealthDelta) Value(name string) int64 {
	for _, v := range d.Values {
		if v.Name == name {
			return v.V
		}
	}
	return 0
}

// WriteHealth renders every lane's time-series in a stable text form
// (ci-gate byte-compares it across two traced runs).
func WriteHealth(w io.Writer, lanes []HealthSeries) error {
	bw := &errWriter{w: w}
	for _, l := range lanes {
		bw.printf("== lane %s (interval %dns, %d intervals", l.Lane, l.IntervalNs, len(l.Deltas))
		if l.DroppedIntervals > 0 {
			bw.printf(", %d evicted", l.DroppedIntervals)
		}
		bw.printf(") ==\n")
		for _, d := range l.Deltas {
			bw.printf("[%d] %dns:", d.Index, d.EndNs)
			for _, v := range d.Values {
				bw.printf(" %s=%d", v.Name, v.V)
			}
			bw.printf("\n")
		}
	}
	return bw.err
}
