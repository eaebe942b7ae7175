package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Scenario is one deterministic run cmd/ci-gate replays against its
// committed baseline: a stable name plus the closure that executes it.
type Scenario struct {
	Name string
	// About says which paper setup the scenario exercises, for gate
	// failure messages and EXPERIMENTS.md.
	About string
	Run   func() (RunReport, error)
	// RunTraced executes the identical run with a flight recorder
	// attached. The recorder is a pure observer, so the report (and its
	// digest) must equal Run's — cmd/ci-gate asserts exactly that.
	RunTraced func(*obs.Recorder) (RunReport, error)
	// TracedRecord, when non-nil, executes the traced run and returns the
	// merged flight record alongside the report. Fleet scenarios set it —
	// their recorders live inside fleet.Run (one per host plus the
	// aggregator), so the external-recorder RunTraced shape cannot expose
	// the record.
	TracedRecord func() (RunReport, obs.Record, error)
}

// NewRecorder builds a flight recorder keyed by the NIC's Toeplitz RSS
// hash, so per-flow sampling follows the same function hardware steers
// by — a sampled flow is sampled on whichever queue it lands on.
func NewRecorder() *obs.Recorder {
	return obs.New(obs.Config{
		FlowHash: func(f packet.FlowKey) uint32 {
			return nic.RSSHash(nic.DefaultRSSKey[:], f)
		},
	})
}

// ScenarioByName finds a CI scenario by its stable name.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range CIScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Report executes the scenario.
func (s Scenario) Report() (RunReport, error) {
	rep, err := s.Run()
	if err != nil {
		return RunReport{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return rep, nil
}

// CIScenarios is the regression-gate suite: one scenario per engine
// family the simulator models, sized to finish in seconds while still
// driving every instrumented path (capture drops, delivery drops,
// offloading, flush timers, kernel livelock). Names are stable — they
// key entries in baselines.json.
func CIScenarios() []Scenario {
	constant := func(name, about string, spec EngineSpec, packets uint64) Scenario {
		run := func(rec *obs.Recorder) (RunReport, error) {
			res, err := RunConstant(ConstantRun{
				Spec: spec, Packets: packets, X: 300, Seed: 7, Trace: rec,
			})
			if err != nil {
				return RunReport{}, err
			}
			return res.Report(name), nil
		}
		return Scenario{Name: name, About: about,
			Run:       func() (RunReport, error) { return run(nil) },
			RunTraced: run,
		}
	}
	border := func(name, about string, spec EngineSpec, seconds float64, seed uint64) Scenario {
		run := func(rec *obs.Recorder) (RunReport, error) {
			res, _, err := RunBorder(BorderRun{
				Spec: spec, Queues: 4, X: 300, Seconds: seconds, Seed: seed, Trace: rec,
			})
			if err != nil {
				return RunReport{}, err
			}
			return res.Report(name), nil
		}
		return Scenario{Name: name, About: about,
			Run:       func() (RunReport, error) { return run(nil) },
			RunTraced: run,
		}
	}
	scenarios := []Scenario{
		constant("constant_wirecapb_x300",
			"Fig 9 setup: WireCAP-B-(256,100) at wire rate, heavy handler",
			WireCAPB(256, 100), 50_000),
		constant("constant_dna_x300",
			"Fig 8 setup: DNA (Type-II, per-packet release) under overload",
			DNA, 50_000),
		constant("constant_pfring_x300",
			"Fig 8 setup: PF_RING (Type-I, kernel copy + livelock) under overload",
			PFRing, 30_000),
		border("border_wirecapa_4q",
			"Table 1 setup: WireCAP-A-(256,100,60%) on the bursty border trace",
			WireCAPA(256, 100, 60), 0.5, 11),
		border("border_netmap_4q",
			"Table 1 setup: NETMAP (Type-II, batch release) on the border trace",
			NETMAP, 0.3, 13),
	}
	scenarios = append(scenarios, ChaosScenarios()...)
	scenarios = append(scenarios, AnalyticsScenarios()...)
	return append(scenarios, FleetScenarios()...)
}

// WriteReports runs every CI scenario and writes the reports to w as
// one indented JSON array — the machine-readable counterpart of the
// experiment tables, and the input cmd/ci-gate diffs baselines against.
func WriteReports(w io.Writer) error {
	scenarios := CIScenarios()
	reports := make([]RunReport, 0, len(scenarios))
	for _, sc := range scenarios {
		rep, err := sc.Report()
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
