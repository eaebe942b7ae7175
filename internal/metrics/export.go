package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// HistValue is a histogram rendered for export: the summary the
// experiment tables report, not the raw buckets.
type HistValue struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// SeriesValue is one series observed at snapshot time. Exactly one of
// Counter, Gauge, and Hist is meaningful, selected by Kind.
type SeriesValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Kind    string            `json:"kind"`
	Counter uint64            `json:"counter,omitempty"`
	Gauge   int64             `json:"gauge,omitempty"`
	Hist    *HistValue        `json:"histogram,omitempty"`

	sortKey string
}

// Snapshot is the registry's full state observed at one virtual-time
// instant, in deterministic (sorted) order. encoding/json renders label
// maps with sorted keys, so marshalling a Snapshot is byte-deterministic.
type Snapshot struct {
	At     vtime.Time    `json:"at_ns"`
	Series []SeriesValue `json:"series"`
}

// Snapshot observes every series at virtual time at. Function-backed
// series are sampled now; direct instruments are read. The result is
// sorted by name, then by canonical label encoding.
func (r *Registry) Snapshot(at vtime.Time) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{At: at}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		all := f.ordered
		if f.overflow != nil {
			all = append(append([]*series{}, f.ordered...), f.overflow)
		}
		for _, s := range all {
			sv := SeriesValue{Name: name, Kind: f.kind.String(), sortKey: s.key}
			if len(s.labels) > 0 {
				sv.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					sv.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				if s.cf != nil {
					sv.Counter = s.cf()
				} else {
					sv.Counter = s.c.Value()
				}
			case KindGauge:
				if s.gf != nil {
					sv.Gauge = s.gf()
				} else {
					sv.Gauge = s.g.Value()
				}
			case KindHistogram:
				h := &s.h.h
				sv.Hist = &HistValue{
					Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
					P50: h.Percentile(0.50), P90: h.Percentile(0.90), P99: h.Percentile(0.99),
				}
			}
			snap.Series = append(snap.Series, sv)
		}
	}
	sort.SliceStable(snap.Series, func(i, j int) bool {
		if snap.Series[i].Name != snap.Series[j].Name {
			return snap.Series[i].Name < snap.Series[j].Name
		}
		return snap.Series[i].sortKey < snap.Series[j].sortKey
	})
	return snap
}

// Get returns the series with the given name and exact label set.
//
//wirelint:allow deadexport test oracle: bus's TestRegisterExportsCountersWithConservation and fleet's merge harness (agg_test.go) read series through it
func (s Snapshot) Get(name string, labels ...Label) (SeriesValue, bool) {
	_, key := canonicalize(labels)
	for _, sv := range s.Series {
		if sv.Name == name && sv.sortKey == key {
			return sv, true
		}
	}
	return SeriesValue{}, false
}

// CounterTotal sums every series of a counter metric across its labels —
// the "whole NIC" or "whole engine" view of a per-queue counter.
func (s Snapshot) CounterTotal(name string) uint64 {
	var n uint64
	for _, sv := range s.Series {
		if sv.Name == name {
			n += sv.Counter
		}
	}
	return n
}

// Sub returns this snapshot minus prev: counters and histogram counts/sums
// become deltas, gauges and histogram shape statistics keep their current
// values. Series absent from prev pass through unchanged. The interval is
// keyed to the virtual clock via both endpoints' At values.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	idx := make(map[string]SeriesValue, len(prev.Series))
	for _, sv := range prev.Series {
		idx[sv.Name+"\x00"+sv.sortKey] = sv
	}
	out := Snapshot{At: s.At, Series: make([]SeriesValue, 0, len(s.Series))}
	for _, sv := range s.Series {
		if p, ok := idx[sv.Name+"\x00"+sv.sortKey]; ok {
			switch sv.Kind {
			case KindCounter.String():
				sv.Counter -= p.Counter
			case KindHistogram.String():
				if sv.Hist != nil && p.Hist != nil {
					h := *sv.Hist
					h.Count -= p.Hist.Count
					h.Sum -= p.Hist.Sum
					sv.Hist = &h
				}
			}
		}
		out.Series = append(out.Series, sv)
	}
	return out
}

// labelString renders labels in canonical {k="v",...} form.
func (sv SeriesValue) labelString() string {
	if len(sv.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(sv.Labels))
	for k := range sv.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, sv.Labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// WriteText renders the snapshot in a stable one-line-per-series text
// form suitable for diffing.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# snapshot at %v\n", s.At); err != nil {
		return err
	}
	for _, sv := range s.Series {
		var err error
		switch sv.Kind {
		case KindHistogram.String():
			h := sv.Hist
			_, err = fmt.Fprintf(w, "%s%s count=%d sum=%d min=%d max=%d p50=%d p90=%d p99=%d\n",
				sv.Name, sv.labelString(), h.Count, h.Sum, h.Min, h.Max, h.P50, h.P90, h.P99)
		case KindGauge.String():
			_, err = fmt.Fprintf(w, "%s%s %d\n", sv.Name, sv.labelString(), sv.Gauge)
		default:
			_, err = fmt.Fprintf(w, "%s%s %d\n", sv.Name, sv.labelString(), sv.Counter)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the snapshot deterministically (series pre-sorted,
// label maps sorted by encoding/json).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // avoid recursion
	return json.Marshal(alias(s))
}
