package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// gateReport runs one cheap scenario once per test binary.
var gateReport *bench.RunReport

func report(t *testing.T) bench.RunReport {
	t.Helper()
	if gateReport == nil {
		sc := bench.CIScenarios()[0]
		rep, err := sc.Report()
		if err != nil {
			t.Fatal(err)
		}
		gateReport = &rep
	}
	return *gateReport
}

func cleanBaseline(t *testing.T) Baselines {
	rep := report(t)
	return Baselines{
		Scenarios: []ScenarioBaseline{{
			Name:    rep.Scenario,
			Digest:  rep.Digest(),
			Metrics: rep.KeyMetrics(),
		}},
		Allocs: map[string]float64{"metrics_counter_inc": 0},
		Perf:   PerfBaseline{MinSimPktsPerSec: 1},
	}
}

// TestGatePassesClean: an untampered baseline produces zero failures.
func TestGatePassesClean(t *testing.T) {
	rep := report(t)
	allocs := map[string]float64{"metrics_counter_inc": 0}
	failures, checks := compare(cleanBaseline(t), []bench.RunReport{rep}, TracedResult{}, FleetTracedResult{}, allocs, 100, false)
	if len(failures) != 0 {
		t.Fatalf("clean comparison failed: %v", failures)
	}
	if len(checks) == 0 {
		t.Fatal("no checks performed")
	}
}

// TestGateDetectsSeededRegressions perturbs the baseline one axis at a
// time and requires the gate to flag each: digest drift, metric drift,
// a missing scenario, an alloc budget bust, and a perf floor miss.
func TestGateDetectsSeededRegressions(t *testing.T) {
	rep := report(t)
	allocs := map[string]float64{"metrics_counter_inc": 0}

	cases := []struct {
		name    string
		mutate  func(*Baselines)
		allocs  map[string]float64
		perf    float64
		skip    bool
		wantSub string
	}{
		{
			name:    "digest drift",
			mutate:  func(b *Baselines) { b.Scenarios[0].Digest = "0000000000000000" },
			wantSub: "report digest",
		},
		{
			name:    "metric drift",
			mutate:  func(b *Baselines) { b.Scenarios[0].Metrics["sent"]++ },
			wantSub: "metric sent",
		},
		{
			name: "scenario missing from build",
			mutate: func(b *Baselines) {
				b.Scenarios = append(b.Scenarios, ScenarioBaseline{Name: "ghost_scenario"})
			},
			wantSub: "not produced by this build",
		},
		{
			name:    "alloc budget bust",
			mutate:  func(b *Baselines) {},
			allocs:  map[string]float64{"metrics_counter_inc": 3},
			wantSub: "exceeds budget",
		},
		{
			name:    "perf floor miss",
			mutate:  func(b *Baselines) { b.Perf.MinSimPktsPerSec = 1e18 },
			wantSub: "below floor",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := cleanBaseline(t)
			tc.mutate(&base)
			a := tc.allocs
			if a == nil {
				a = allocs
			}
			perf := tc.perf
			if perf == 0 {
				perf = 100
			}
			failures, _ := compare(base, []bench.RunReport{rep}, TracedResult{}, FleetTracedResult{}, a, perf, tc.skip)
			if len(failures) == 0 {
				t.Fatal("tampered baseline passed the gate")
			}
			found := false
			for _, f := range failures {
				if strings.Contains(f, tc.wantSub) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no failure mentions %q; got %v", tc.wantSub, failures)
			}
		})
	}
}

// TestSkipPerfSuppressesFloor: -skip-perf must disable only the
// wall-clock check, which is the one legitimately environment-dependent
// check the gate has.
func TestSkipPerfSuppressesFloor(t *testing.T) {
	rep := report(t)
	base := cleanBaseline(t)
	base.Perf.MinSimPktsPerSec = 1e18
	allocs := map[string]float64{"metrics_counter_inc": 0}
	failures, _ := compare(base, []bench.RunReport{rep}, TracedResult{}, FleetTracedResult{}, allocs, 1, true)
	if len(failures) != 0 {
		t.Fatalf("skip-perf still failed: %v", failures)
	}
}

// TestTracedStabilityChecks: when the baseline carries the traced
// scenario, the gate must flag a traced-digest mismatch and unstable
// exports, and pass a matching stable probe.
func TestTracedStabilityChecks(t *testing.T) {
	base := Baselines{Scenarios: []ScenarioBaseline{{Name: tracedScenario, Digest: "abc"}}}
	tracedFailures := func(tr TracedResult) []string {
		failures, _ := compare(base, nil, tr, FleetTracedResult{}, nil, 0, true)
		var out []string
		for _, f := range failures {
			if strings.Contains(f, "traced") {
				out = append(out, f)
			}
		}
		return out
	}
	if fs := tracedFailures(TracedResult{Digest: "abc", Stable: true}); len(fs) != 0 {
		t.Fatalf("matching stable probe failed: %v", fs)
	}
	fs := tracedFailures(TracedResult{Digest: "xyz", Stable: false})
	if len(fs) != 2 {
		t.Fatalf("mismatching unstable probe produced %d traced failures, want 2: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0], "perturbed") || !strings.Contains(fs[1], "different Chrome traces") {
		t.Fatalf("unexpected traced failure wording: %v", fs)
	}
}

// TestFleetTracedChecks: when the fleet-traced family ran, the gate
// must flag a traced digest that drifts from the committed baseline,
// exports that differ between two traced reruns, and a forensics ledger
// that fails to partition the books — and pass a clean probe silently.
func TestFleetTracedChecks(t *testing.T) {
	base := Baselines{Scenarios: []ScenarioBaseline{{Name: "fleet_chaos_host_kill", Digest: "abc"}}}
	fleetFailures := func(ftr FleetTracedResult) []string {
		failures, _ := compare(base, nil, TracedResult{}, ftr, nil, 0, true)
		var out []string
		for _, f := range failures {
			if strings.Contains(f, "fleet traced") {
				out = append(out, f)
			}
		}
		return out
	}
	clean := FleetTracedResult{Scenarios: map[string]FleetTracedScenario{
		"fleet_chaos_host_kill": {Digest: "abc", Stable: true},
	}}
	if fs := fleetFailures(clean); len(fs) != 0 {
		t.Fatalf("clean fleet probe failed: %v", fs)
	}
	broken := FleetTracedResult{Scenarios: map[string]FleetTracedScenario{
		"fleet_chaos_host_kill": {Digest: "xyz", Stable: false, LedgerErr: fmt.Errorf("host 0 off by 1")},
	}}
	fs := fleetFailures(broken)
	if len(fs) != 3 {
		t.Fatalf("broken fleet probe produced %d failures, want 3: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0], "perturbed") ||
		!strings.Contains(fs[1], "differ between two traced runs") ||
		!strings.Contains(fs[2], "not a partition") {
		t.Fatalf("unexpected fleet traced failure wording: %v", fs)
	}
	if fs := fleetFailures(FleetTracedResult{}); len(fs) != 0 {
		t.Fatalf("skipped fleet family still produced failures: %v", fs)
	}
}

// TestFleetLedgerCheckRederives: the external ledger re-derivation must
// accept the real storm record and reject a tampered one.
func TestFleetLedgerCheckRederives(t *testing.T) {
	sc, ok := bench.ScenarioByName("fleet_chaos_host_kill")
	if !ok {
		t.Fatal("fleet_chaos_host_kill not in CIScenarios")
	}
	rep, rec, err := sc.TracedRecord()
	if err != nil {
		t.Fatal(err)
	}
	if err := fleetLedgerCheck(rep, &rec); err != nil {
		t.Fatalf("real storm record failed the ledger check: %v", err)
	}
	tampered := rep
	tampered.Totals.Delivered++
	if err := fleetLedgerCheck(tampered, &rec); err == nil {
		t.Fatal("tampered books passed the ledger check")
	}
}

// TestMeasuredAllocsAreZero pins the zero-allocation contract the
// committed budgets rely on: every hot path measures exactly zero, and
// the one non-zero budget, the fleet run's per-packet ceiling, holds.
func TestMeasuredAllocsAreZero(t *testing.T) {
	data, err := os.ReadFile("../../baselines.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baselines
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	for name, v := range measureAllocs() {
		budget, ok := base.Allocs[name]
		if !ok {
			t.Errorf("%s: measured but has no committed budget", name)
			continue
		}
		if name == "fleet_run_per_pkt" {
			t.Logf("%s: %g allocs/pkt, budget %g", name, v, budget)
			if v <= 0 || v > budget {
				t.Errorf("%s: %g allocs/pkt, want within (0, %g]", name, v, budget)
			}
			continue
		}
		if v != 0 || budget != 0 {
			t.Errorf("%s: %g allocs/op (budget %g) on a hot path budgeted at zero", name, v, budget)
		}
	}
}

// TestKeepCeilings: a refresh keeps a hand-set ceiling the build meets,
// replaces one it exceeds, and commits zero budgets as measured.
func TestKeepCeilings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baselines.json")
	prev := `{"allocs": {"a": 0.25, "b": 0.25, "c": 0}}`
	if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}
	got := keepCeilings(map[string]float64{"a": 0.1, "b": 0.3, "c": 0, "d": 0}, path)
	want := map[string]float64{"a": 0.25, "b": 0.3, "c": 0, "d": 0}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %g, want %g", name, got[name], w)
		}
	}
	if fresh := keepCeilings(map[string]float64{"a": 0.1}, filepath.Join(t.TempDir(), "none.json")); fresh["a"] != 0.1 {
		t.Errorf("no committed file: a = %g, want the measurement", fresh["a"])
	}
}
