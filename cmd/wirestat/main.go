// Command wirestat renders a fleet flight-recorder export (the Chrome
// trace JSON written by experiments -trace or fleet.Run) as a
// deterministic text dashboard: one activity lane per host, recovery
// actions as annotated events, and the worst interval highlighted with
// its per-host drop-cause breakdown.
//
// Usage:
//
//	wirestat -r fleet-trace.json              # the dashboard
//	wirestat -r fleet-trace.json -journeys    # end-to-end packet journeys
//	wirestat -r fleet-trace.json -ledger      # host x cause x interval ledger
//	wirestat -r fleet-trace.json -health      # raw health time-series
//
// Every output is a pure function of the record: byte-identical across
// machines and runs — ci-gate relies on that.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/vtime"
)

func main() {
	file := flag.String("r", "", "flight-recorder export to read (required)")
	journeys := flag.Bool("journeys", false, "print the end-to-end journey dump instead of the dashboard")
	ledger := flag.Bool("ledger", false, "print the host x cause x interval forensics ledger")
	health := flag.Bool("health", false, "print the raw per-lane health time-series")
	interval := flag.Int64("interval", 0, "ledger/dashboard interval in virtual ns (default: the record's health interval, else 250us)")
	flag.Parse()

	if *file == "" {
		fmt.Fprintln(os.Stderr, "wirestat: -r is required")
		os.Exit(2)
	}
	f, err := os.Open(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirestat:", err)
		os.Exit(1)
	}
	rec, err := obs.ReadRecord(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirestat:", err)
		os.Exit(1)
	}

	iv := vtime.Time(*interval)
	if iv <= 0 {
		iv = recInterval(&rec)
	}
	switch {
	case *journeys:
		err = rec.WriteJourneys(os.Stdout)
	case *ledger:
		err = rec.WriteFleetLedger(os.Stdout, iv)
	case *health:
		err = obs.WriteHealth(os.Stdout, rec.Health)
	default:
		err = writeDashboard(os.Stdout, &rec, iv)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirestat:", err)
		os.Exit(1)
	}
}

// recInterval is the record's own health sampling interval, falling
// back to the ledger default when the record carries no health series.
func recInterval(rec *obs.Record) vtime.Time {
	for _, l := range rec.Health {
		if l.IntervalNs > 0 {
			return l.IntervalNs
		}
	}
	return 250 * vtime.Microsecond
}
