// Command wiretrace inspects a flight-recorder export produced by
// `experiments -trace` (Chrome trace-event JSON with the full obs.Record
// under otherData).
//
// Usage:
//
//	wiretrace -r trace.json                  list sampled packets (one line each)
//	wiretrace -r trace.json -flow 10.0.0.7   only flows whose string contains the substring
//	wiretrace -r trace.json -queue 1         only packets steered to queue 1
//	wiretrace -r trace.json -pkt 1234        one packet's full stage timeline
//	wiretrace -r trace.json -cause reclaim   drop-ledger records with that cause
//	wiretrace -r trace.json -report          the full drop-forensics report
//
// Fleet records render their end-to-end packet journeys through
// `wirestat -journeys`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	in := flag.String("r", "", "trace JSON file to read (required; - for stdin)")
	flow := flag.String("flow", "", "filter packets by flow substring")
	queue := flag.Int("queue", -1, "filter packets/drops by queue (-1: all)")
	cause := flag.String("cause", "", "list drop-ledger records with this cause (see -report for names)")
	pkt := flag.Int64("pkt", -1, "print the full timeline of this packet id")
	report := flag.Bool("report", false, "print the drop-forensics report")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f := os.Stdin
	if *in != "-" {
		var err error
		f, err = os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	rec, err := obs.ReadRecord(f)
	if err != nil {
		fatal(err)
	}

	switch {
	case *report:
		err = rec.WriteForensics(os.Stdout)
	case *pkt >= 0:
		err = timeline(&rec, uint64(*pkt))
	case *cause != "":
		err = drops(&rec, *cause, *queue)
	default:
		err = list(&rec, *flow, *queue)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wiretrace:", err)
	os.Exit(1)
}

// timeline prints one packet's full stage timeline.
func timeline(rec *obs.Record, id uint64) error {
	for i := range rec.Packets {
		if rec.Packets[i].ID == id {
			return rec.WriteTimeline(os.Stdout, &rec.Packets[i])
		}
	}
	return fmt.Errorf("packet %d not in the trace (sampled 1/%d flows, %d traces kept)",
		id, rec.SampleEvery, len(rec.Packets))
}

// drops prints the ledger records matching cause (and queue, if >= 0).
func drops(rec *obs.Record, cause string, queue int) error {
	n := 0
	for _, d := range rec.Drops {
		if d.Cause != cause || (queue >= 0 && d.Queue != queue) {
			continue
		}
		n++
		fmt.Printf("%12dns  nic=%d queue=%-2d count=%-5d", d.At, d.NIC, d.Queue, d.Count)
		if d.Pkt >= 0 {
			fmt.Printf(" pkt=%d", d.Pkt)
		}
		if d.Fault >= 0 {
			fmt.Printf(" fault=%d", d.Fault)
		}
		fmt.Println()
	}
	fmt.Printf("%d records, %d packets total for cause %s\n", n, rec.DropTotals[cause], cause)
	if n == 0 && rec.DropTotals[cause] == 0 {
		names := strings.Join(obs.CauseNames(), ", ")
		fmt.Printf("(known causes: %s)\n", names)
	}
	return nil
}

// list prints one line per sampled packet, oldest first.
func list(rec *obs.Record, flow string, queue int) error {
	n := 0
	for i := range rec.Packets {
		p := &rec.Packets[i]
		if flow != "" && !strings.Contains(p.FlowS, flow) {
			continue
		}
		if queue >= 0 && p.Queue != queue {
			continue
		}
		n++
		last := p.Stamps[len(p.Stamps)-1]
		fate := last.Stage.String()
		if p.Drop != "" {
			fate = "drop:" + p.Drop
		}
		fmt.Printf("pkt %-7d q%-2d %-42s %2d stamps  %12dns..%dns  %s\n",
			p.ID, p.Queue, p.FlowS, len(p.Stamps), p.Stamps[0].At, last.At, fate)
	}
	fmt.Printf("%d of %d sampled packets shown (1/%d flows traced)\n", n, len(rec.Packets), rec.SampleEvery)
	return nil
}
