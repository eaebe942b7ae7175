package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fleet"
)

// digest flattens everything observable about a run into one string, so
// two runs can be compared bit for bit. It deliberately covers every
// counter the experiments report: Sent, per-queue engine stats, and the
// handler's processing record including the delay histogram.
func digest(r Result) string {
	h := r.Handler
	return fmt.Sprintf("sent=%d stats=%+v processed=%d matched=%d bytes=%d txdrop=%d perq=%v delaysum=%d hist=%v fwd=%d",
		r.Sent, r.Stats, h.Processed, h.Matched, h.Bytes, h.TxDropped,
		h.PerQueue, h.DelaySum, h.DelayHist, r.Forwarded)
}

// TestGoldenDeterminism guards the scheduler (and any future rewrite of
// it): the same seed must produce bit-identical results, run to run, for
// both the Fig9-style constant-rate setup and the border workload with
// its flush timers and offloading.
func TestGoldenDeterminism(t *testing.T) {
	constant := func() string {
		res, err := RunConstant(ConstantRun{
			Spec: WireCAPB(256, 100), Packets: 50_000, X: 300, Seed: 7,
		})
		if err != nil {
			t.Fatalf("RunConstant: %v", err)
		}
		return digest(res)
	}
	a, b := constant(), constant()
	if a != b {
		t.Errorf("constant-rate runs diverged:\n  %s\n  %s", a, b)
	}

	border := func() string {
		res, offered, err := RunBorder(BorderRun{
			Spec: WireCAPA(256, 100, 60), Queues: 4, X: 300,
			Seconds: 0.5, Seed: 11,
		})
		if err != nil {
			t.Fatalf("RunBorder: %v", err)
		}
		return digest(res) + fmt.Sprintf(" offered=%v", offered)
	}
	c, d := border(), border()
	if c != d {
		t.Errorf("border runs diverged:\n  %s\n  %s", c, d)
	}
}

// TestRunReportDeterminism extends the golden guard to the exported
// RunReport: two identically seeded runs must serialize to byte-equal
// JSON (metrics snapshot included) and therefore equal digests. This is
// the property cmd/ci-gate's baseline digests rely on.
func TestRunReportDeterminism(t *testing.T) {
	for _, sc := range CIScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a, err := sc.Report()
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Report()
			if err != nil {
				t.Fatal(err)
			}
			aj, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			bj, err := b.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Errorf("reports diverged between identical runs:\n%s\n---\n%s", aj, bj)
			}
			if da, db := a.Digest(), b.Digest(); da != db {
				t.Errorf("digests diverged: %s vs %s", da, db)
			}
			if len(a.Metrics.Series) == 0 {
				t.Error("report carries no metric series; registry wiring is broken")
			}
		})
	}
}

// TestRunReportDigestSensitivity proves the digest actually covers the
// observable state: perturbing the seed (different arrival jitter) must
// change it. A digest blind to the run would let regressions through
// the gate.
func TestRunReportDigestSensitivity(t *testing.T) {
	run := func(seed uint64) string {
		res, _, err := RunBorder(BorderRun{
			Spec: WireCAPB(256, 100), Queues: 2, X: 300,
			Seconds: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report("sensitivity").Digest()
	}
	if run(7) == run(8) {
		t.Error("digest unchanged across different seeds; it is not covering the run state")
	}
}

// TestFleetDigestSensitivity proves the flattened fleet digest the gate
// pins covers the run: perturbing the offered rate, the host count, or
// the aggregation batch size must change it. (The traffic seed alone is
// not enough: a lossless paced run only renames its flows.)
func TestFleetDigestSensitivity(t *testing.T) {
	run := func(mutate func(*fleet.Config)) string {
		cfg := fleet.Config{Hosts: 4, Packets: 3_000, Flows: 64, Seed: 7}
		mutate(&cfg)
		rep, err := FleetRunReport("fleet_sens", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Digest()
	}
	base := run(func(*fleet.Config) {})
	if run(func(c *fleet.Config) { c.PacketsPerSec = 750_000 }) == base {
		t.Error("fleet digest unchanged across offered rates")
	}
	if run(func(c *fleet.Config) { c.Hosts = 5 }) == base {
		t.Error("fleet digest unchanged across host counts")
	}
	if run(func(c *fleet.Config) { c.BatchPackets = 16 }) == base {
		t.Error("fleet digest unchanged across batch sizes")
	}
}
