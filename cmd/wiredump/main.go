// Command wiredump is a tcpdump-style trace inspector for the capture
// files this repository produces (and any Ethernet pcap/pcapng file): it
// applies a BPF filter expression and prints one line per matching
// packet.
//
// Usage:
//
//	wiredump -r trace.pcap [-c count] [-d] [-stats] [filter expression ...]
//
// -d prints the compiled BPF program (like tcpdump -d) and exits.
// -stats prints a metrics snapshot of the read (frames read/matched,
// bytes, decode errors) to stderr on exit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sort"

	"repro/internal/bpf"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func main() {
	file := flag.String("r", "", "pcap or pcapng file to read (required unless -d)")
	count := flag.Int("c", 0, "stop after this many matching packets (0 = all)")
	dump := flag.Bool("d", false, "print the compiled filter program and exit")
	stats := flag.Bool("stats", false, "print a metrics snapshot of the read to stderr on exit")
	flag.Parse()

	expr := strings.Join(flag.Args(), " ")
	if *dump {
		prog, err := bpf.Compile(expr, 65535)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wiredump:", err)
			os.Exit(2)
		}
		fmt.Print(bpf.Disassemble(prog))
		return
	}
	filter, err := bpf.CompileFlat(expr, 65535)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wiredump:", err)
		os.Exit(2)
	}
	if *file == "" {
		fmt.Fprintln(os.Stderr, "wiredump: -r is required")
		os.Exit(2)
	}
	if isRecordFile(*file) {
		// A flight-recorder export (wirecap Chrome trace JSON), not a
		// capture file: -stats prints its counter series — including the
		// fleet conservation causes — instead of only single-host metrics.
		if !*stats {
			fmt.Fprintln(os.Stderr, "wiredump:", *file, "is a flight-recorder export, not a capture file; use -stats for its counters, or cmd/wiretrace / cmd/wirestat for forensics")
			os.Exit(2)
		}
		if err := recordStats(*file, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "wiredump:", err)
			os.Exit(1)
		}
		return
	}
	src, closeFn, err := openTrace(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wiredump:", err)
		os.Exit(1)
	}
	defer closeFn()

	reg := metrics.NewRegistry()
	read := reg.Counter("frames_read")
	match := reg.Counter("frames_matched")
	readBytes := reg.Counter("bytes_read")
	matchBytes := reg.Counter("bytes_matched")
	decodeErrs := reg.Counter("decode_errors")

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	var dec packet.Decoded
	matched := 0
	last := vtime.Time(0)
	for {
		frame, ts, ok := src.Next()
		if !ok {
			break
		}
		read.Inc()
		readBytes.Add(uint64(len(frame)))
		last = ts
		if !filter.Match(frame) {
			continue
		}
		// Decode errors still print the link-level line, as tcpdump does.
		if err := packet.Decode(frame, &dec); err != nil {
			decodeErrs.Inc()
		}
		fmt.Fprintln(w, packet.Format(ts, &dec))
		match.Inc()
		matchBytes.Add(uint64(len(frame)))
		matched++
		if *count > 0 && matched >= *count {
			break
		}
	}
	w.Flush()
	if *stats {
		// The snapshot instant is the last frame's capture timestamp, so
		// identical files always render identical stats.
		if err := reg.Snapshot(last).WriteText(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "wiredump:", err)
		}
	}
	// A source that stopped on a read error (truncated file, implausible
	// record length, ...) rather than clean EOF must fail the command,
	// not just fall silent mid-file.
	if es, ok := src.(interface{ Err() error }); ok {
		if err := es.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "wiredump:", err)
			closeFn()
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "%d packets matched\n", matched)
}

// isRecordFile reports whether the file is a flight-recorder JSON
// export rather than a pcap/pcapng capture (their magics never start
// with '{' or whitespace).
func isRecordFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], 0); err != nil {
		return false
	}
	return b[0] == '{' || b[0] == ' ' || b[0] == '\n' || b[0] == '\t'
}

// recordStats prints a flight-recorder export's counter series: drop
// totals by cause (the fleet conservation causes included), the fleet
// journey/event counts, and the per-host forensics ledger summary.
func recordStats(path string, w *os.File) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := obs.ReadRecord(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario %s end_ns %d\n", rec.Scenario, rec.End)
	causes := make([]string, 0, len(rec.DropTotals))
	for c := range rec.DropTotals {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(w, "drop_total{cause=%s} %d\n", c, rec.DropTotals[c])
	}
	fmt.Fprintf(w, "packet_traces %d\n", len(rec.Packets))
	if len(rec.Journeys) > 0 || len(rec.FleetEvents) > 0 {
		fmt.Fprintf(w, "fleet_journeys %d\n", len(rec.Journeys))
		fmt.Fprintf(w, "fleet_events %d\n", len(rec.FleetEvents))
		fmt.Fprintf(w, "health_lanes %d\n", len(rec.Health))
		return rec.WriteFleetLedger(w, 0)
	}
	return nil
}

// openTrace opens a capture file, auto-detecting pcap versus pcapng.
func openTrace(path string) (trace.Source, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	closeFn := func() { f.Close() }
	if magic == [4]byte{0x0A, 0x0D, 0x0D, 0x0A} {
		rd, err := trace.NewNgReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return trace.NewNgSource(rd), closeFn, nil
	}
	rd, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return trace.NewPcapSource(rd), closeFn, nil
}
