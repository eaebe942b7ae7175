package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"

	"repro/internal/engines"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/walltime"
)

// spanKind names a span. Phase spans (setup, run, report) are recorded on
// every rep; the rest only while the tracer's detail is on.
type spanKind uint8

const (
	spanSetup spanKind = iota
	spanRun
	spanFleetRun
	spanReport
	spanNICSetup
	spanCoreSetup
	spanEnginesSetup
	spanAppSetup
	spanTraceSetup
	// Sampled call spans, from here to the end.
	spanNext    // trace.Source.Next
	spanCost    // engines.Handler.Cost
	spanHandle  // engines.Handler.Handle
	spanRelease // the engine's done callback inside a sampled Handle
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"setup", "vtime.run", "fleet.run", "bench.report",
	"nic.setup", "core.setup", "engines.setup", "app.setup", "trace.setup",
	"trace.next", "app.cost", "app.handle", "engines.release",
}

type span struct {
	kind       spanKind
	parent     int32 // index into tracer.spans, -1 at top level
	ctl        int32 // ns, an empty span timed just before a sampled one
	start, end int64 // ns since the tracer's epoch
}

// Sampling masks: a call is timed when a seeded pseudo-random draw has
// no bits of the mask set. The draw, rather than every n-th call, keeps
// the sample from aliasing with the 256-packet chunk cycle. Handler calls
// cost about the same each time, so one in 64 suffices. Source.Next is
// heavy-tailed: the border generator plans a whole 10 ms bin of arrivals in
// one call out of ~1400, so it is sampled one in 8 to catch enough of those.
const (
	nextSampleMask = 7
	callSampleMask = 63
)

// A tracer records spans in memory. It sits outside the program: spans
// wrap calls into public functions and the two injectable seams,
// trace.Source and engines.Handler.
type tracer struct {
	clock  walltime.Stopwatch
	spans  []span
	cur    int32
	detail bool
	rng    uint64
	calls  [numSpanKinds]uint64 // wrapper calls this rep, sampled or not

	pending   func() // done of the sampled Handle in progress
	releaseFn func()
}

func newTracer(seed uint64) *tracer {
	t := &tracer{clock: walltime.Start(), cur: -1, rng: seed*0x9e3779b97f4a7c15 | 1}
	t.releaseFn = t.release
	return t
}

func (t *tracer) now() int64 { return int64(t.clock.Seconds() * 1e9) }

func (t *tracer) open(k spanKind) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: t.cur})
	t.cur = i
	t.spans[i].start = t.now() // after append, so growing spans is not timed
	return i
}

// openDetail opens a span only while detail is on; close ignores the -1
// it returns otherwise.
func (t *tracer) openDetail(k spanKind) int32 {
	if !t.detail {
		return -1
	}
	return t.open(k)
}

func (t *tracer) close(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.cur = t.spans[i].parent
}

// sample advances a xorshift64 stream and reports whether this call is
// timed.
func (t *tracer) sample(mask uint64) bool {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x&mask == 0
}

// openSampled opens the span of a sampled call. Its first clock read
// warms the clock path, which the unsampled calls in between let go cold;
// the next two time an empty span in place, the control summarize
// subtracts from the call's span.
func (t *tracer) openSampled(k spanKind) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: t.cur})
	t.cur = i
	t.now()
	a := t.now()
	sp := &t.spans[i]
	sp.start = t.now()
	sp.ctl = int32(sp.start - a)
	return i
}

// spanCost is the mean duration of an empty sampled span, timed back to
// back: the tracer's own cost per sampled call.
func (t *tracer) spanCost() float64 {
	const n = 10_000
	mark := len(t.spans)
	t.spans = slices.Grow(t.spans, n)
	for i := 0; i < n; i++ {
		t.close(t.openSampled(spanNext))
	}
	var sum float64
	for _, s := range t.spans[mark:] {
		sum += float64(s.end - s.start)
	}
	t.spans = t.spans[:mark]
	return sum / n
}

func (t *tracer) source(src trace.Source) trace.Source {
	if !t.detail {
		return src
	}
	return tracedSource{t: t, src: src}
}

func (t *tracer) handler(h engines.Handler) engines.Handler {
	if !t.detail {
		return h
	}
	return tracedHandler{t: t, h: h}
}

type tracedSource struct {
	t   *tracer
	src trace.Source
}

func (s tracedSource) Next() ([]byte, vtime.Time, bool) {
	t := s.t
	t.calls[spanNext]++
	if !t.sample(nextSampleMask) {
		return s.src.Next()
	}
	i := t.openSampled(spanNext)
	frame, ts, ok := s.src.Next()
	t.close(i)
	return frame, ts, ok
}

type tracedHandler struct {
	t *tracer
	h engines.Handler
}

func (w tracedHandler) Cost(q int, data []byte) vtime.Time {
	t := w.t
	t.calls[spanCost]++
	if !t.sample(callSampleMask) {
		return w.h.Cost(q, data)
	}
	i := t.openSampled(spanCost)
	c := w.h.Cost(q, data)
	t.close(i)
	return c
}

// Handle times a sampled call with the engine's done callback as a child
// span, so the engine's release work is not charged to the handler. This
// relies on pkt_handler calling done before it returns, which it does
// whenever it does not forward; no workload forwards.
func (w tracedHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	t := w.t
	t.calls[spanHandle]++
	if !t.sample(callSampleMask) {
		w.h.Handle(q, data, ts, done)
		return
	}
	i := t.openSampled(spanHandle)
	t.pending = done
	w.h.Handle(q, data, ts, t.releaseFn)
	t.close(i)
}

func (t *tracer) release() {
	done := t.pending
	t.pending = nil
	i := t.openSampled(spanRelease)
	done()
	t.close(i)
}

// repSpans summarises the spans of one rep, all in ns.
type repSpans struct {
	total [numSpanKinds]float64 // summed durations per kind
	// self estimates the self time of every call of a sampled kind: the
	// sampled spans' self times, less their controls, scaled by
	// calls / sampled.
	self [numSpanKinds]float64
	// runSelf is the run phase less the sampled kinds' estimates and the
	// clock reads of every sampled span.
	runSelf float64
	wall    float64 // the top-level spans end to end
}

// summarize reads the spans recorded since mark and the rep's call
// counts. A sampled span makes four clock reads, each costing about one
// control: three fall in its parent, its end falls in itself.
func (t *tracer) summarize(mark int) repSpans {
	var r repSpans
	sp := t.spans[mark:]
	inner := make([]float64, len(sp)) // children's time, reads included
	for _, s := range sp {
		if p := int(s.parent) - mark; p >= 0 {
			inner[p] += float64(s.end-s.start) + 3*float64(s.ctl)
		}
	}
	var selfSum, sampled [numSpanKinds]float64
	var reads float64
	for i, s := range sp {
		d := float64(s.end - s.start)
		r.total[s.kind] += d
		if s.parent < 0 {
			r.wall += d
		}
		if s.kind >= spanNext {
			selfSum[s.kind] += d - float64(s.ctl) - inner[i]
			sampled[s.kind]++
			reads += 4 * float64(s.ctl)
		}
	}
	r.runSelf = r.total[spanRun] - reads
	for _, k := range []spanKind{spanNext, spanCost, spanHandle} {
		if sampled[k] > 0 {
			r.self[k] = selfSum[k] * float64(t.calls[k]) / sampled[k]
		}
		r.runSelf -= r.self[k]
	}
	return r
}

// writeSpans writes every recorded span as JSON: its kind's name, its
// parent's index and its start and end in ns since the process started.
func (t *tracer) writeSpans(path string) error {
	type out struct {
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(out{spanNames[s.kind], s.parent, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
