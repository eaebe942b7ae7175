// Command queue-profiler is the paper's Experiment 1 tool: it captures
// packets from every receive queue of a simulated NIC and counts packets
// per 10 ms bin per queue, revealing RSS load imbalance (Figure 3).
//
// Usage:
//
//	queue-profiler [-queues n] [-seconds s] [-seed n] [-pcap file] [-csv]
//
// With -csv it emits the raw time series (bin start in seconds, one
// column per queue), which plots directly as Figure 3.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/app"
	"repro/internal/bench"
	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "queue-profiler:", err)
		os.Exit(1)
	}
}

// run profiles the queues as the flags in args say and writes the
// report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("queue-profiler", flag.ExitOnError)
	queues := fs.Int("queues", 6, "receive queues")
	seconds := fs.Float64("seconds", 32, "trace duration")
	seed := fs.Uint64("seed", 2014, "workload seed")
	pcapPath := fs.String("pcap", "", "replay this pcap file instead of the synthetic border trace")
	csv := fs.Bool("csv", false, "emit the raw per-bin time series as CSV")
	fs.Parse(args)

	var src trace.Source
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		src = trace.NewPcapSource(rd)
	} else {
		src = trace.NewBorder(trace.BorderConfig{
			Queues:   *queues,
			Duration: vtime.Time(*seconds * float64(vtime.Second)),
			Seed:     *seed,
		})
	}
	prof := app.NewQueueProfiler(*queues)
	res, err := bench.Host{
		Spec: bench.DNA, Queues: *queues, Source: src,
		Handler: func(*metrics.Registry) engines.Handler { return prof },
	}.Run()
	if err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	if *csv {
		fmt.Fprint(bw, "bin_start_s")
		for q := 0; q < *queues; q++ {
			fmt.Fprintf(bw, ",queue%d", q)
		}
		fmt.Fprintln(bw)
		bins := 0
		for q := 0; q < *queues; q++ {
			if len(prof.Series(q)) > bins {
				bins = len(prof.Series(q))
			}
		}
		for b := 0; b < bins; b++ {
			fmt.Fprintf(bw, "%.2f", float64(b)*0.01)
			for q := 0; q < *queues; q++ {
				v := uint64(0)
				if s := prof.Series(q); b < len(s) {
					v = s[b]
				}
				fmt.Fprintf(bw, ",%d", v)
			}
			fmt.Fprintln(bw)
		}
		return bw.Flush()
	}
	fmt.Fprintf(bw, "replayed %d packets over %v\n\n", res.Sent, res.Last)
	fmt.Fprintf(bw, "%-6s %12s %12s %16s\n", "queue", "packets", "mean p/s", "peak pkts/10ms")
	for q := 0; q < *queues; q++ {
		total := prof.Total(q)
		fmt.Fprintf(bw, "%-6d %12d %12.0f %16d\n",
			q, total, float64(total)/res.Last.Seconds(), prof.Peak(q))
	}
	return bw.Flush()
}
