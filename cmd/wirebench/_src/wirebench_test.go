package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/bench"
)

// testScale runs every workload at 1% of its benchmark size.
const testScale = 0.01

// TestHarnessEquivalence pins the benchmark's own single-host assembly to
// the harness it mirrors: with delay accounting off, each engine run must
// digest exactly as bench.RunConstant / bench.RunBorder, traced or not.
func TestHarnessEquivalence(t *testing.T) {
	for _, w := range workloads(testScale) {
		for _, r := range w.runs {
			var want bench.RunReport
			if r.packets > 0 {
				res, err := bench.RunConstant(bench.ConstantRun{Spec: r.spec, Packets: r.packets, X: r.x, Seed: w.seed})
				if err != nil {
					t.Fatal(err)
				}
				want = res.Report(w.name)
			} else {
				res, _, err := bench.RunBorder(bench.BorderRun{Spec: r.spec, Queues: r.queues, X: r.x, Seconds: r.seconds, Seed: w.seed})
				if err != nil {
					t.Fatal(err)
				}
				want = res.Report(w.name)
			}
			for _, traced := range []bool{false, true} {
				tr := newTracer(w.seed)
				tr.detail = traced
				var out outcome
				_, got, err := runHost(w.name, r, w.seed, tr, false, &out)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Digest() {
					t.Errorf("%s %s traced=%v: digest %s, harness %s", w.name, r.spec.Name(), traced, got, want.Digest())
				}
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json this package must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON runs every workload small, untraced and
// traced, and checks that it prints exactly the metrics BENCHMARK.json
// names, with the units it names, and passes its own checks.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("workload name %q", n)
		}
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for _, m := range want {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
		}
		for _, w := range names {
			res, m, err := execute(options{workload: w, seed: -1, seconds: 0.01, traced: traced, scale: testScale, benchtime: "1ms"})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %q", w, traced, res.Correct, res.Attempted, res.Failed, m.Failures)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
		}
	}
}
