package bench

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// traced runs scenario name with a fresh recorder and returns the
// report, the recorder, and both exports.
func traced(t *testing.T, name string) (RunReport, *obs.Recorder, []byte, []byte) {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %s not in CIScenarios", name)
	}
	rec := NewRecorder()
	rep, err := sc.RunTraced(rec)
	if err != nil {
		t.Fatal(err)
	}
	record := rec.Record(name, rep.EndNs)
	var chrome, forensics bytes.Buffer
	if err := record.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := record.WriteForensics(&forensics); err != nil {
		t.Fatal(err)
	}
	return rep, rec, chrome.Bytes(), forensics.Bytes()
}

// TestTracedExportsGolden is the observability golden guard: two
// identically seeded traced runs export byte-identical Chrome JSON and
// forensics text, and attaching the recorder leaves the run's digest
// exactly equal to the untraced run's — the recorder is a pure
// observer, which is what lets ci-gate keep one baseline per scenario.
func TestTracedExportsGolden(t *testing.T) {
	for _, name := range []string{"chaos_queue_hang", "constant_pfring_x300"} {
		name := name
		t.Run(name, func(t *testing.T) {
			repA, _, chromeA, forA := traced(t, name)
			repB, _, chromeB, forB := traced(t, name)
			if !bytes.Equal(chromeA, chromeB) {
				t.Error("Chrome exports differ between identical seeded runs")
			}
			if !bytes.Equal(forA, forB) {
				t.Error("forensics reports differ between identical seeded runs")
			}
			if repA.Digest() != repB.Digest() {
				t.Errorf("traced digests diverged: %s vs %s", repA.Digest(), repB.Digest())
			}
			sc, _ := ScenarioByName(name)
			plain, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest() != repA.Digest() {
				t.Errorf("tracing changed the digest: untraced %s, traced %s",
					plain.Digest(), repA.Digest())
			}
			if len(chromeA) == 0 || len(forA) == 0 {
				t.Error("empty export")
			}
		})
	}
}

// TestDropLedgerConservation checks the ledger's central invariant on
// every CI scenario: the per-cause totals, summed by class, equal the
// engine's drop counters exactly. Every drop the simulator counts is
// attributed to exactly one typed cause.
func TestDropLedgerConservation(t *testing.T) {
	for _, sc := range CIScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rec := NewRecorder()
			rep, err := sc.RunTraced(rec)
			if err != nil {
				t.Fatal(err)
			}
			tot := rep.Totals
			if rep.Engine == "fleet" {
				// Fleet scenarios account drops in host-level books, not
				// the packet-lifecycle ledger (their per-host recorders
				// merge inside fleet.Run, which already errors on any
				// conservation miss). Check the flattened books here.
				if tot.Received != tot.Delivered+tot.DeliveryDrops {
					t.Errorf("fleet books: received %d != delivered %d + delivery drops %d",
						tot.Received, tot.Delivered, tot.DeliveryDrops)
				}
				if rep.Sent != tot.Received+tot.CaptureDrops {
					t.Errorf("fleet books: sent %d != received %d + capture drops %d",
						rep.Sent, tot.Received, tot.CaptureDrops)
				}
				return
			}
			drops := rec.Record(sc.Name, 0).DropTotals
			total := func(c obs.DropCause) uint64 { return drops[c.String()] }
			capture := total(obs.DropDescDepletion) + total(obs.DropBus) +
				total(obs.DropQueueHang) + total(obs.DropDescStall)
			delivery := total(obs.DropDeliveryOverflow) + total(obs.DropQuarantineBacklog)
			if capture != tot.CaptureDrops {
				t.Errorf("capture ledger = %d, counter = %d", capture, tot.CaptureDrops)
			}
			if delivery != tot.DeliveryDrops {
				t.Errorf("delivery ledger = %d, counter = %d", delivery, tot.DeliveryDrops)
			}
			if c := total(obs.DropCorrupt); c != tot.CorruptDrops {
				t.Errorf("corrupt ledger = %d, counter = %d", c, tot.CorruptDrops)
			}
			if c := total(obs.DropReclaim); c != tot.ReclaimDrops {
				t.Errorf("reclaim ledger = %d, counter = %d", c, tot.ReclaimDrops)
			}
		})
	}
}
