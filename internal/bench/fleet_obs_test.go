package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFleetTracedObservabilityGolden sweeps every fleet chaos scenario
// through the observability plane: the traced run's digest must equal
// the untraced digest (the journeys, health lanes, and forensics ledger
// are pure observers), and every rendered artifact — journey dump,
// Chrome export, health series — must be byte-identical across two
// traced runs. This is the test-suite mirror of ci-gate's fleet-traced
// family.
func TestFleetTracedObservabilityGolden(t *testing.T) {
	for _, sc := range CIScenarios() {
		if !strings.HasPrefix(sc.Name, "fleet_chaos_") {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			plain, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			rep1, rec1, err := sc.TracedRecord()
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest() != rep1.Digest() {
				t.Errorf("tracing changed the digest: untraced %s, traced %s",
					plain.Digest(), rep1.Digest())
			}
			rep2, rec2, err := sc.TracedRecord()
			if err != nil {
				t.Fatal(err)
			}
			if rep1.Digest() != rep2.Digest() {
				t.Errorf("digest differs between traced reruns: %s vs %s", rep1.Digest(), rep2.Digest())
			}
			render := func(what string, f func(*bytes.Buffer, obs.Record) error) {
				var b1, b2 bytes.Buffer
				if err := f(&b1, rec1); err != nil {
					t.Fatalf("%s run 1: %v", what, err)
				}
				if err := f(&b2, rec2); err != nil {
					t.Fatalf("%s run 2: %v", what, err)
				}
				if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
					t.Errorf("%s differs between traced reruns", what)
				}
			}
			render("journey dump", func(b *bytes.Buffer, r obs.Record) error { return r.WriteJourneys(b) })
			render("chrome export", func(b *bytes.Buffer, r obs.Record) error { return r.WriteChrome(b) })
			render("health series", func(b *bytes.Buffer, r obs.Record) error { return obs.WriteHealth(b, r.Health) })
			if len(rec1.Journeys) == 0 {
				t.Error("fleet traced record carries no journeys")
			}
			if len(rec1.Health) == 0 {
				t.Error("fleet traced record carries no health lanes")
			}
		})
	}
}

// TestFleetKeyMetricsExposeConservationCounters: the flattened fleet
// RunReport's KeyMetrics must carry the fleet conservation counters so
// baselines.json pins them and `wiredump -stats` has them to print.
func TestFleetKeyMetricsExposeConservationCounters(t *testing.T) {
	sc, ok := ScenarioByName("fleet_chaos_host_kill")
	if !ok {
		t.Fatal("fleet_chaos_host_kill not in CIScenarios")
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	km := rep.KeyMetrics()
	for _, name := range []string{"fleet_received", "fleet_host_lost", "fleet_wire_dropped"} {
		if km[name] == 0 {
			t.Errorf("KeyMetrics[%s] = %v, want nonzero under the storm (have: %v)", name, km[name], km)
		}
	}
}
