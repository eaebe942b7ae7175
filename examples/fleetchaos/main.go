// Fleetchaos: a six-host capture fleet under the headline chaos storm —
// one permanent host kill, one crash with restart, and an aggregation
// link flap — with every lost packet accounted for. The run prints the
// fleet-wide conservation ledger and the per-host books; fleet.Run
// itself errors if a single packet goes missing from the equation
//
//	FleetReceived == Aggregated + HostLost + InFlightDropped
package main

import (
	"fmt"
	"log"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/vtime"
)

func main() {
	res, err := fleet.Run("fleetchaos_example", fleet.Config{
		Hosts:   6,
		Packets: 30_000,
		Flows:   256,
		Seed:    7,
		Faults: faults.Schedule{
			// Host 1 dies for good at 5 ms: its flows re-steer to the
			// survivors after quarantine.
			{Kind: faults.HostCrash, NIC: 1, At: 5 * vtime.Millisecond},
			// Host 4 crashes at 12 ms and comes back at 20 ms: it
			// re-joins via the hello handshake and is readmitted.
			{Kind: faults.HostCrash, NIC: 4, At: 12 * vtime.Millisecond,
				Dur: 8 * vtime.Millisecond},
			// Host 2 keeps capturing through a 600 us link partition:
			// retry/backoff holds its batches, analytics shed first.
			{Kind: faults.AggLinkDown, NIC: 2, At: 8 * vtime.Millisecond,
				Dur: 600 * vtime.Microsecond},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	r := res.Report

	fmt.Printf("fleet:     %d hosts, %d packets offered\n", len(r.PerHost), r.FleetSent)
	fmt.Printf("aggregated: %d (delivery %.4f, floor 0.95)\n", r.Aggregated, r.Delivery)
	fmt.Printf("lost:      %d at capture, %d with crashed hosts, %d in flight\n",
		r.WireDropped+r.CaptureDropped, r.HostLost, r.InFlightDropped)
	fmt.Printf("control:   %d quarantines, %d readmissions, %d re-steers (%d flows moved)\n",
		r.Quarantines, r.Readmissions, r.ReSteers, r.SteerMoves)
	fmt.Printf("conserved: %v  (received == aggregated + host-lost + in-flight)\n", r.Conserved())
	fmt.Println()

	fmt.Println("host  received  aggregated  wire_drop  cap_drop  host_lost  inflight  retries")
	for _, h := range r.PerHost {
		fmt.Printf("%4d  %8d  %10d  %9d  %8d  %9d  %8d  %7d\n",
			h.Host, h.Received, h.Aggregated, h.WireDropped, h.CaptureDropped,
			h.HostLost, h.InFlightDropped+h.StaleRejected, h.Retries)
	}
	fmt.Println()
	fmt.Printf("virtual time elapsed: %v\n", r.EndNs)
	fmt.Printf("digest: %s (byte-identical run to run)\n", r.Digest())
}
