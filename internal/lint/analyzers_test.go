package lint

import (
	"path/filepath"
	"testing"
)

func fixture(name string) string { return filepath.Join("testdata", "src", name) }

func TestWalltimeFixture(t *testing.T) {
	runFixture(t, fixture("walltime"), WalltimeAnalyzer)
}

func TestMaporderFixture(t *testing.T) {
	runFixture(t, fixture("maporder"), MaporderAnalyzer)
}

func TestHotpathFixture(t *testing.T) {
	runFixture(t, fixture("hotpath"), HotpathAnalyzer)
}

func TestLockdisciplineFixture(t *testing.T) {
	runFixture(t, fixture("lockdiscipline"), LockAnalyzer)
}

func TestConcurrencyFixture(t *testing.T) {
	runFixture(t, fixture("concurrency"), ConcurrencyAnalyzer)
}

func TestHotpathFlowFixture(t *testing.T) {
	runFixture(t, fixture("hotpathflow"), HotpathFlowAnalyzer)
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, fixture("determinism"), DeterminismAnalyzer)
}

func TestConservationFixture(t *testing.T) {
	runFixture(t, fixture("conservation"), ConservationAnalyzer)
}

// TestDirectiveFixture runs the full suite so allow directives for any
// rule resolve, and checks the malformed/unused directive findings.
func TestDirectiveFixture(t *testing.T) {
	runFixture(t, fixture("directive"), Analyzers()...)
}

// TestDirectiveAccounting pins the summary contract the driver prints:
// allowlisted findings are counted per rule and carry their reasons, so
// exceptions stay visible instead of vanishing.
func TestDirectiveAccounting(t *testing.T) {
	m, err := loadDir(fixture("directive"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := Run(m, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Allowed != 2 {
		t.Fatalf("Allowed = %d, want 2 (trailing + standalone)", sum.Allowed)
	}
	if sum.AllowedByRule["walltime"] != 2 {
		t.Fatalf("AllowedByRule[walltime] = %d, want 2", sum.AllowedByRule["walltime"])
	}
	if len(sum.AllowedList) != 2 {
		t.Fatalf("AllowedList has %d entries, want 2", len(sum.AllowedList))
	}
	for _, f := range sum.AllowedList {
		if f.Reason == "" {
			t.Errorf("allowlisted finding %s has no reason", f)
		}
		if !f.Allowed {
			t.Errorf("AllowedList entry %s not marked allowed", f)
		}
	}
	// The fixture's live findings are exactly the directive-hygiene
	// ones plus the unsuppressed time.Now.
	if sum.Findings == 0 {
		t.Fatal("expected live findings from the malformed-directive cases")
	}
}

// TestDeadexportFixture loads a fixture module: the rule needs a
// second package to see a cross-package use, public API beside
// internal/, and a nested module the loader skips.
func TestDeadexportFixture(t *testing.T) {
	runFixture(t, fixture("deadexport"), DeadexportAnalyzer)
}
