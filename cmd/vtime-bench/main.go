// Command vtime-bench measures the simulation engine's hot paths and
// writes the results to BENCH_vtime.json: scheduler microbenchmarks
// (schedule, cancel, and the self-rescheduling schedule+step cycle, each
// against one million pending events), an end-to-end wall-clock run of
// bench.RunConstant, the border generator alone over the table1 trace,
// and the filter_path family (filterbench.go), whose
// entries carry an accept-matrix digest and the measuring machine's
// GOMAXPROCS. Scheduler entries carry the
// corresponding measurement taken at the container/heap-based scheduler
// this engine replaced, and border_next_4s the generator before its
// wide checksum, typed sort and header-only zeroing, so the file
// documents the before/after directly.
//
// Usage:
//
//	vtime-bench [-o BENCH_vtime.json]
//	vtime-bench -check [-baseline BENCH_vtime.json] [-tolerance 4.0]
//
// -check is the CI mode: instead of overwriting the committed file it
// re-measures and compares against it read-only — allocs/op must not
// exceed the committed value at all, and ns/op must stay within the
// tolerance factor (wall-clock-safe: only order-of-magnitude slowdowns
// fail at the default 4.0x). Exit status 1 on regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// baseline holds the same benchmarks measured at the revision each one's
// optimization replaced (for the scheduler entries, the container/heap
// scheduler with per-event closure allocation; for border_next_4s, the
// 16-bit checksum loop, sort.Slice and full-frame zeroing), on the same
// class of host this tool runs on. They are retained here so
// regenerating the JSON keeps the before/after comparison.
var baseline = map[string]Entry{
	"schedule_1m_pending":      {NsPerOp: 347.5, AllocsPerOp: 1, BytesPerOp: 57},
	"cancel_1m_pending":        {NsPerOp: 150.4, AllocsPerOp: 1, BytesPerOp: 48},
	"schedule_step_1m_pending": {NsPerOp: 472.8, AllocsPerOp: 1, BytesPerOp: 47},
	"run_constant_200k":        {NsPerOp: 129.28e6, SimPktsPerSec: 1_547_001},
	"border_next_4s":           {NsPerOp: 394.96e6, AllocsPerOp: 1273, BytesPerOp: 780416},
}

// Entry is one benchmark measurement.
type Entry struct {
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	SimPktsPerSec float64 `json:"sim_pkts_per_sec,omitempty"`
	// Digest is the entry's deterministic output digest (filter_path
	// entries only). Unlike wall-clock numbers it is machine-independent,
	// so -check compares it exactly against the committed value.
	Digest string `json:"digest,omitempty"`
	// GoMaxProcs records the parallelism available when the entry was
	// measured (filter_path entries only), as context for its wall-clock
	// numbers.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Tolerance, when > 0, overrides the global -tolerance factor for
	// this entry in -check mode. Families whose wall-clock noise differs
	// structurally (tight microbench loops vs whole-corpus sweeps) commit
	// their own window instead of sharing one fixed 4x band.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Record pairs a current measurement with its pre-rewrite baseline.
type Record struct {
	Name     string  `json:"name"`
	Current  Entry   `json:"current"`
	Baseline Entry   `json:"baseline"`
	Speedup  float64 `json:"speedup"`
}

const pendingEvents = 1_000_000

func fill(s *vtime.Scheduler, n int) {
	nop := func() {}
	r := vtime.NewRand(1)
	for i := 0; i < n; i++ {
		s.At(vtime.Time(1+r.Intn(1<<30)), nop)
	}
}

func benchSchedule(b *testing.B) {
	s := vtime.NewScheduler()
	fill(s, pendingEvents)
	nop := func() {}
	r := vtime.NewRand(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+vtime.Time(1+r.Intn(1<<30)), nop)
		if s.Pending() >= 2*pendingEvents {
			b.StopTimer()
			for s.Pending() > pendingEvents {
				s.Step()
			}
			b.StartTimer()
		}
	}
}

func benchCancel(b *testing.B) {
	s := vtime.NewScheduler()
	fill(s, pendingEvents)
	nop := func() {}
	r := vtime.NewRand(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := s.At(s.Now()+vtime.Time(1+r.Intn(1<<30)), nop)
		if !s.Cancel(id) {
			b.Fatal("cancel failed")
		}
	}
}

func benchScheduleStep(b *testing.B) {
	s := vtime.NewScheduler()
	fill(s, pendingEvents)
	var tick func()
	tick = func() { s.At(s.Now()+1, tick) }
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

const runConstantPackets = 200_000

func benchRunConstant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunConstant(bench.ConstantRun{
			Spec: bench.WireCAPB(256, 100), Packets: runConstantPackets, X: 0, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sent != runConstantPackets {
			b.Fatalf("sent %d packets, want %d", res.Sent, runConstantPackets)
		}
	}
}

// benchBorderNext drives the table1_border6q generator (the 4 s border
// profile on 6 RSS queues, seed 11, about 558k frames) through Next to
// the end: frame synthesis alone, with no NIC or engine behind it.
func benchBorderNext(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := trace.NewBorder(trace.BorderConfig{Queues: 6, Duration: 4 * vtime.Second, Seed: 11})
		for {
			if _, _, ok := src.Next(); !ok {
				break
			}
		}
		if src.Emitted() == 0 {
			b.Fatal("border generator emitted nothing")
		}
	}
}

func measure(name string, fn func(*testing.B)) Record {
	r := testing.Benchmark(fn)
	cur := Entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if name == "run_constant_200k" {
		cur.SimPktsPerSec = runConstantPackets / (cur.NsPerOp / 1e9)
	}
	base := baseline[name]
	rec := Record{Name: name, Current: cur, Baseline: base}
	if cur.NsPerOp > 0 && base.NsPerOp > 0 {
		rec.Speedup = base.NsPerOp / cur.NsPerOp
	}
	return rec
}

// benchDoc is the file layout of BENCH_vtime.json.
type benchDoc struct {
	Note    string   `json:"note"`
	Results []Record `json:"results"`
}

// check compares fresh measurements against the committed file without
// touching it. Allocations are deterministic, so any increase fails;
// ns/op is wall-clock and noisy, so it only fails beyond tolerance×.
func check(records []Record, speedups []float64, committedPath string, tolerance float64) int {
	data, err := os.ReadFile(committedPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		return 2
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "vtime-bench: parsing %s: %v\n", committedPath, err)
		return 2
	}
	committed := make(map[string]Entry, len(doc.Results))
	for _, r := range doc.Results {
		committed[r.Name] = r.Current
	}
	status := 0
	for _, r := range records {
		want, ok := committed[r.Name]
		if !ok {
			fmt.Printf("FAIL %-26s not in %s (regenerate with -o)\n", r.Name, committedPath)
			status = 1
			continue
		}
		switch {
		case r.Current.AllocsPerOp > allocBudget(want.AllocsPerOp):
			fmt.Printf("FAIL %-26s %d allocs/op, committed %d\n",
				r.Name, r.Current.AllocsPerOp, want.AllocsPerOp)
			status = 1
		case want.Digest != "" && r.Current.Digest != want.Digest:
			fmt.Printf("FAIL %-26s digest %s, committed %s (determinism regression)\n",
				r.Name, r.Current.Digest, want.Digest)
			status = 1
		case want.NsPerOp > 0 && r.Current.NsPerOp > want.NsPerOp*tol(want, tolerance):
			fmt.Printf("FAIL %-26s %.1f ns/op exceeds committed %.1f x tolerance %.1f\n",
				r.Name, r.Current.NsPerOp, want.NsPerOp, tol(want, tolerance))
			status = 1
		default:
			fmt.Printf("ok   %-26s %12.1f ns/op  %3d allocs/op  (committed %12.1f, %d)\n",
				r.Name, r.Current.NsPerOp, r.Current.AllocsPerOp, want.NsPerOp, want.AllocsPerOp)
		}
	}
	if s := checkFilterPath(os.Stdout, records, speedups); s > status {
		status = s
	}
	if status == 1 {
		fmt.Printf("If intentional, regenerate with `go run ./cmd/vtime-bench -o %s` and commit the diff.\n", committedPath)
	}
	return status
}

// tol returns the entry's committed tolerance window, falling back to
// the global -tolerance flag.
func tol(e Entry, global float64) float64 {
	if e.Tolerance > 0 {
		return e.Tolerance
	}
	return global
}

// allocBudget is the allocation ceiling for a committed count: exact
// for zero-alloc entries (the hot-path guarantee), plus 1% headroom
// (minimum 2) otherwise — large runs jitter by a few allocations with
// runtime internals (stack growth, map rehash timing) that are not
// regressions.
func allocBudget(committed int64) int64 {
	if committed == 0 {
		return 0
	}
	slack := committed / 100
	if slack < 2 {
		slack = 2
	}
	return committed + slack
}

func main() {
	out := flag.String("o", "BENCH_vtime.json", "output file (- for stdout)")
	checkMode := flag.Bool("check", false, "compare against the committed file instead of overwriting it")
	checkPath := flag.String("baseline", "BENCH_vtime.json", "committed file -check compares against")
	tolerance := flag.Float64("tolerance", 4.0, "allowed ns/op slowdown factor in -check mode")
	flag.Parse()

	records := []Record{
		measure("schedule_1m_pending", benchSchedule),
		measure("cancel_1m_pending", benchCancel),
		measure("schedule_step_1m_pending", benchScheduleStep),
		measure("run_constant_200k", benchRunConstant),
		measure("border_next_4s", benchBorderNext),
	}
	filterRecords, speedups := filterPathRecords()
	records = append(records, filterRecords...)
	if *checkMode {
		os.Exit(check(records, speedups(), *checkPath, *tolerance))
	}
	doc := benchDoc{
		Note:    "generated by cmd/vtime-bench; baseline = container/heap scheduler before the allocation-free rewrite",
		Results: records,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vtime-bench:", err)
		os.Exit(1)
	}
	for _, r := range records {
		fmt.Printf("%-26s %12.1f ns/op  %3d allocs/op  (baseline %12.1f ns/op, %.2fx)\n",
			r.Name, r.Current.NsPerOp, r.Current.AllocsPerOp, r.Baseline.NsPerOp, r.Speedup)
	}
}
