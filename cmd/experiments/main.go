// Command experiments regenerates every table and figure of the WireCAP
// paper's evaluation on the simulated substrate.
//
// Usage:
//
//	experiments [-run name] [-scale f] [-pmax n] [-seed n]
//	            [-cpuprofile f] [-memprofile f]
//
// Names: fig3, table1, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
// ablations, chaos, fleet, all.
//
// -reports FILE runs the deterministic CI scenario suite instead and
// writes structured RunReports (JSON, metrics snapshots included) to
// FILE ("-" for stdout) — the machine-readable form of the evaluation.
//
// -trace FILE runs one CI scenario (-tracescenario, default
// chaos_queue_hang) with the packet-lifecycle flight recorder attached
// and writes the Chrome trace-event JSON to FILE ("-" for stdout).
// Inspect it with cmd/wiretrace or chrome://tracing / Perfetto.
// At -scale 1 and -pmax 10000000 the workloads match the paper's sizes
// (several minutes of CPU); the defaults run a faithful-shape, reduced-
// size pass in tens of seconds.
//
// -cpuprofile and -memprofile write pprof profiles of the run, for
// inspecting where simulator time and memory go (`go tool pprof`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	run := flag.String("run", "all", "experiment to run (fig3..fig14, table1, all)")
	scale := flag.Float64("scale", 0.25, "border-workload scale (1.0 = paper)")
	pmax := flag.Uint64("pmax", 1_000_000, "largest burst P for fig8-10 (paper: 10000000)")
	pkts := flag.Uint64("scalepkts", 1_000_000, "per-NIC packets for fig14")
	seed := flag.Uint64("seed", 2014, "workload seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	reports := flag.String("reports", "", "run the CI scenarios and write RunReport JSON to this file (- for stdout)")
	traceOut := flag.String("trace", "", "run one CI scenario traced and write Chrome trace JSON to this file (- for stdout)")
	traceScenario := flag.String("tracescenario", "chaos_queue_hang", "CI scenario to trace (with -trace)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *traceOut != "" {
		if err := writeTrace(*traceScenario, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	if *reports != "" {
		out := os.Stdout
		if *reports != "-" {
			f, err := os.Create(*reports)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := bench.WriteReports(out); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	opt := bench.Options{Scale: *scale, PMax: *pmax, ScalePackets: *pkts, Seed: *seed, CSV: *csv}
	if err := bench.ByName(*run, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// writeTrace runs the named CI scenario with a flight recorder attached
// and writes the Chrome trace-event export to path.
func writeTrace(name, path string) error {
	sc, ok := bench.ScenarioByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (see -reports output for names)", name)
	}
	var (
		rep    bench.RunReport
		record obs.Record
		err    error
	)
	if sc.TracedRecord != nil {
		// Fleet scenarios own their recorders (one per host plus the
		// aggregator): the merged record — journeys, health lanes, the
		// fleet forensics ledger — comes back alongside the report.
		rep, record, err = sc.TracedRecord()
	} else {
		rec := bench.NewRecorder()
		rep, err = sc.RunTraced(rec)
		record = rec.Record(name, rep.EndNs)
	}
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := record.WriteChrome(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: traced %s: %d sampled packets, %d journeys, %d drop records, digest %s\n",
		name, len(record.Packets), len(record.Journeys), len(record.Drops), rep.Digest())
	return nil
}
