// Command wirebench is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process, checks its outputs,
// and prints every metric by name and unit as JSON:
//
//	bash cmd/wirebench/run.sh --workload fig8_wire64 --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics (README.md lists them with
// their bounds). --trace 1 measures the per-layer ones instead: traced
// reps alternated with untraced ones, then a ladder of single-layer
// microbenchmarks. The last line of standard output is the result:
//
//	{"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}
//
// preceded by one line of metadata. The exit status is 0 when every
// check passed, 1 when one failed and 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// options is one invocation. scale and benchtime are not flags: tests set
// them to run the workloads small.
type options struct {
	workload  string
	seed      int64 // < 0: the workload's default
	seconds   float64
	traced    bool
	spans     string
	scale     float64
	benchtime string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// meta is printed before the result: what a reader needs to judge the
// numbers, but not metrics two commits are compared on.
type meta struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Traced     bool     `json:"traced"`
	Reps       int      `json:"reps"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Digest     string   `json:"digest"`
	Offered    uint64   `json:"offered_per_rep"`
	CalibRefMs float64  `json:"calib_ref_ms"`
	Failures   []string `json:"failures,omitempty"`

	// Deterministic simulator outputs: identical for a given seed on any
	// host, so they belong to correctness rather than speed.
	SimDeliveredFrac float64 `json:"sim_delivered_frac"`
	SimDelayP50Us    float64 `json:"sim_delay_p50_us,omitempty"`
	SimDelayP999Us   float64 `json:"sim_delay_p999_us,omitempty"`
	FailedFrac       float64 `json:"failed_frac"`

	// Untraced runs: the quartiles of the timed metrics over the reps,
	// uncalibrated, and the calibration kernel's median and fast decile.
	PktsPerSecRaw [3]float64 `json:"sim_pkts_per_s_raw_quartiles,omitempty"`
	SetupSRaw     [3]float64 `json:"setup_s_raw_quartiles,omitempty"`
	CalibMs       float64    `json:"calib_ms_median,omitempty"`
	CalibMsFast   float64    `json:"calib_ms_fast_decile,omitempty"`
	// Traced runs: the share of each traced rep its phase spans cover.
	SpanCoverageMin float64 `json:"span_coverage_min,omitempty"`
	SpanCoverageMax float64 `json:"span_coverage_max,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("wirebench", flag.ContinueOnError)
	o := options{scale: 1, benchtime: "150ms"}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", -1, "traffic seed (default: the workload's own)")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long the untraced reps measure")
	trace := fs.Int("trace", 0, "1: measure the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "write the recorded spans to this file as JSON lines")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.traced = *trace == 1
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "wirebench: want --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]")
		os.Exit(2)
	}
	res, m, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(2)
	}
	for _, f := range m.Failures {
		fmt.Fprintln(os.Stderr, "wirebench: FAIL", f)
	}
	mb, err := json.Marshal(m)
	if err == nil {
		var rb []byte
		rb, err = json.Marshal(res)
		if err == nil {
			fmt.Printf("%s\n%s\n", mb, rb)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(1) {
		names = append(names, w.name)
	}
	return names
}

// execute runs one invocation. Its error is a usage or I/O problem; a
// failed check is reported in the result instead.
func execute(o options) (result, meta, error) {
	w, ok := workloadByName(o.workload, o.scale)
	if !ok {
		return result{}, meta{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	seed := w.seed
	if o.seed >= 0 {
		seed = uint64(o.seed)
	}
	tr := newTracer(seed)
	cal := newCalibrator()
	// The warm-up rep is discarded from timing; its digest is the one
	// every later rep must reproduce.
	ref := runRep(w, seed, tr)
	m := meta{
		Workload: w.name, Seed: seed, Traced: o.traced, GoMaxProcs: runtime.GOMAXPROCS(0),
		Digest: ref.digest, Offered: ref.offered, CalibRefMs: calibRefMs,
		SimDeliveredFrac: ratio(float64(ref.delivered), float64(ref.offered)),
	}
	if ref.delays.Count() > 0 {
		m.SimDelayP50Us = float64(ref.delays.Percentile(0.50)) / 1e3
		m.SimDelayP999Us = float64(ref.delays.Percentile(0.999)) / 1e3
	}
	res := result{Metrics: map[string]metricValue{}}
	if ref.err != nil {
		m.Failures = append(m.Failures, "warm-up rep: "+ref.err.Error())
	}

	var ss []sample
	if o.traced {
		ss = measureTraced(w, seed, tr, cal, ref, o, &res, &m)
	} else {
		ss = measureUntraced(w, seed, tr, cal, o, &res, &m)
	}
	res.Attempted = len(ss)
	for i, s := range ss {
		switch {
		case s.out.err != nil:
			m.Failures = append(m.Failures, fmt.Sprintf("rep %d: %v", i+1, s.out.err))
		case s.out.digest != ref.digest && s.traced:
			m.Failures = append(m.Failures, fmt.Sprintf("rep %d: traced digest %s != untraced %s: a wrapper was not a pure observer", i+1, s.out.digest, ref.digest))
		case s.out.digest != ref.digest:
			m.Failures = append(m.Failures, fmt.Sprintf("rep %d: digest %s != warm-up %s under the same seed", i+1, s.out.digest, ref.digest))
		default:
			continue
		}
		res.Failed++
	}
	m.Reps = len(ss)
	m.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	res.Correct = len(m.Failures) == 0
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return result{}, meta{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, m, nil
}

// measureUntraced measures the end-to-end metrics. Timed metrics are
// fast deciles of the reps, scaled by the calibration kernel's fast
// decile over the same reps.
func measureUntraced(w workload, seed uint64, tr *tracer, cal *calibrator, o options, res *result, m *meta) []sample {
	ss := measureReps(w, seed, tr, cal, plan{
		seconds: o.seconds, minReps: 3, maxReps: math.MaxInt,
		traced: func(int) bool { return false },
	})
	scale := calibRefMs / fastDecile(cal.ms)
	run := each(ss, func(s sample) float64 { return (runNs(w, s.spans) + s.spans.total[spanReport]) / 1e9 })
	setup := each(ss, func(s sample) float64 { return s.spans.total[spanSetup] / 1e9 })
	offered := float64(m.Offered)
	res.set("sim_pkts_per_s", ratio(offered, fastDecile(run)*scale), "sim-pkts/s")
	res.set("setup_s", fastDecile(setup)*scale, "s")
	rate := each(run, func(t float64) float64 { return ratio(offered, t) })
	m.PktsPerSecRaw = quartiles(rate)
	m.SetupSRaw = quartiles(setup)
	m.CalibMs = median(cal.ms)
	m.CalibMsFast = fastDecile(cal.ms)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}
	res.set("alloc_bytes_per_pkt", median(each(ss, func(s sample) float64 {
		return ratio(float64(s.allocBytes), float64(s.out.offered))
	})), "B/pkt")
	res.set("allocs_per_kpkt", median(each(ss, func(s sample) float64 {
		return ratio(1000*float64(s.mallocs), float64(s.out.offered))
	})), "allocs/kpkt")
	return ss
}

// runNs is the rep's run phase: every Scheduler.Run, or the fleet.Run.
func runNs(w workload, s repSpans) float64 {
	if w.fleet != nil {
		return s.total[spanFleetRun]
	}
	return s.total[spanRun]
}

// tracedReps is how many traced reps a traced invocation runs, each
// followed by an untraced one.
const tracedReps = 5

// measureTraced measures the per-layer metrics: traced reps alternated
// with untraced ones, the ladder, and the reconciliation of the two.
func measureTraced(w workload, seed uint64, tr *tracer, cal *calibrator, ref outcome, o options, res *result, m *meta) []sample {
	ss := measureReps(w, seed, tr, cal, plan{
		minReps: 2 * tracedReps, maxReps: 2 * tracedReps,
		traced: func(i int) bool { return i%2 == 0 },
		spans:  int(ref.offered/4) + 1024,
	})
	var traced, plain []sample
	for _, s := range ss {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	layer := func(name, unit string, f func(s sample) float64) {
		res.set(name, median(each(traced, f)), unit)
	}
	perPkt := func(v float64, s sample) float64 { return ratio(v, float64(s.out.offered)) }
	layer("trace.next_ns_per_pkt", "ns", func(s sample) float64 { return perPkt(s.spans.self[spanNext], s) })
	layer("app.handler_ns_per_delivered", "ns", func(s sample) float64 {
		return ratio(s.spans.self[spanCost]+s.spans.self[spanHandle], float64(s.out.delivered))
	})
	layer("vtime.run_self_ns_per_pkt", "ns", func(s sample) float64 { return perPkt(s.spans.runSelf, s) })
	layer("fleet.run_ns_per_pkt", "ns", func(s sample) float64 { return perPkt(s.spans.total[spanFleetRun], s) })
	layer("bench.report_ms", "ms", func(s sample) float64 { return s.spans.total[spanReport] / 1e6 })
	for _, k := range []spanKind{spanNICSetup, spanCoreSetup, spanEnginesSetup, spanAppSetup, spanTraceSetup} {
		layer(spanNames[k]+"_ms", "ms", func(s sample) float64 { return s.spans.total[k] / 1e6 })
	}
	tracedRun := median(each(traced, func(s sample) float64 { return runNs(w, s.spans) }))
	plainRun := median(each(plain, func(s sample) float64 { return runNs(w, s.spans) }))
	res.set("wirebench.trace_overhead_frac", ratio(tracedRun, plainRun)-1, "ratio")
	res.set("wirebench.span_cost_ns", tr.spanCost(), "ns")

	// The phase spans must account for the traced reps: their self times
	// and the layers' below them add up to the spans, so the spans must
	// cover each rep's wall time.
	for i, s := range traced {
		cov := ratio(s.spans.wall, s.wall)
		if i == 0 || cov < m.SpanCoverageMin {
			m.SpanCoverageMin = cov
		}
		if cov > m.SpanCoverageMax {
			m.SpanCoverageMax = cov
		}
		if cov < 0.95 || cov > 1.05 {
			m.Failures = append(m.Failures, fmt.Sprintf("traced rep %d: phase spans cover %.3f of the rep", i+1, cov))
		}
	}

	// Counts from the warm-up rep's own reports; deterministic per seed.
	off := float64(ref.offered)
	res.set("nic.rx_accept_frac", ratio(float64(ref.rxAccepted), off), "ratio")
	res.set("core.chunks_per_kpkt", ratio(1000*float64(ref.chunks), off), "chunks/kpkt")
	res.set("core.offload_frac", ratio(float64(ref.offloaded), float64(ref.chunks)), "ratio")
	res.set("engines.copies_per_pkt", ratio(float64(ref.copies), off), "copies/pkt")
	res.set("engines.syscalls_per_kpkt", ratio(1000*float64(ref.syscalls), off), "syscalls/kpkt")
	res.set("fleet.batches_per_kpkt", ratio(1000*float64(ref.batches), off), "batches/kpkt")
	res.set("fleet.retries", float64(ref.retries), "count")
	res.set("fleet.steer_moves", float64(ref.steerMoves), "count")
	res.set("fleet.quarantines", float64(ref.quarantines), "count")

	rungs, err := runLadder(o.benchtime)
	if err != nil {
		m.Failures = append(m.Failures, err.Error())
	}
	for _, r := range rungs {
		res.set(r.name+"_ns", r.ns, "ns")
		res.set(r.name+"_allocs", r.allocs, "allocs")
		if r.zero && r.allocs > 0 {
			m.Failures = append(m.Failures, fmt.Sprintf("ladder %s allocates %.4g per op on a zero-alloc hot path", r.name, r.allocs))
		}
	}

	// Reconciliation: the ladder's per-op costs times each op's count per
	// rep, over the untraced run time. nic.Deliver already contains
	// packet.Decode, the RSS hash and the bus transfer, so those rungs are
	// not added again; the rest is scheduler and core/engine glue.
	explained := 0.0
	if w.fleet == nil {
		accept := float64(ref.rxAccepted)
		explained = accept*rungNs(rungs, "nic.deliver_accept") +
			(off-accept)*rungNs(rungs, "nic.deliver_drop") +
			float64(ref.chunkPkts)*rungNs(rungs, "mem.chunk_cycle") +
			float64(ref.delivered)*(rungNs(rungs, "bpf.match")+rungNs(rungs, "obs.hooks_off"))
	}
	res.set("ledger.explained_frac", ratio(explained, plainRun), "ratio")
	return ss
}

// combineDigests folds a rep's per-run digests into one.
func combineDigests(ds []string) string {
	if len(ds) == 1 {
		return ds[0]
	}
	h := fnv.New64a()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
