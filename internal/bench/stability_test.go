package bench

import (
	"bytes"
	"testing"
)

// TestReportByteStability is the regression guard behind the KeyMetrics
// restructure: two identical seeded runs must export byte-identical JSON
// and equal key-metric maps. Any map-iteration order leaking into the
// report — the class of bug the wirelint maporder analyzer hunts — shows
// up here as a byte diff.
func TestReportByteStability(t *testing.T) {
	run := func() RunReport {
		res, err := RunConstant(ConstantRun{
			Spec: WireCAPB(64, 100), Packets: 20_000, X: 300, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report("stability")
	}
	a, b := run(), run()

	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("two identical runs exported different JSON bytes:\nrun1 digest %s\nrun2 digest %s", a.Digest(), b.Digest())
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %s vs %s", a.Digest(), b.Digest())
	}

	am, bm := a.KeyMetrics(), b.KeyMetrics()
	if len(am) != len(bm) {
		t.Fatalf("key metric sets differ: %d vs %d entries", len(am), len(bm))
	}
	for k, v := range am {
		if bv, ok := bm[k]; !ok || bv != v {
			t.Errorf("key metric %q: %v vs %v (present %v)", k, v, bm[k], ok)
		}
	}
}
