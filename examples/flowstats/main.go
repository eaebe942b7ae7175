// Flowstats: a packet-based network performance analysis application (the
// paper's second motivating workload class), rebuilt on the streaming
// analytics stage. Every captured packet is decoded zero-copy and fed to
// internal/analytics, which maintains a count-min sketch, a space-saving
// heavy-hitter table, a superspreader tracker, and a bounded exact flow
// table — all with zero allocations per packet on the steady state, so
// the consumer keeps up at line rate instead of growing an unbounded map.
package main

import (
	"fmt"
	"log"

	"repro/internal/analytics"
	"repro/internal/packet"
	"repro/internal/vtime"
	"repro/wirecap"
)

func main() {
	sim := wirecap.NewSim()
	nic := sim.NewNIC(wirecap.NICConfig{Queues: 6})
	eng, err := sim.NewEngine(nic, wirecap.Options{M: 256, R: 100, Advanced: true})
	if err != nil {
		log.Fatal(err)
	}

	// One stage shared across queues: handles deliver sequentially on the
	// one simulation goroutine, so no locking is needed here.
	stage := analytics.New(analytics.Config{
		FlowCapacity: 4096,
		TopK:         16,
	}, nil, nil)
	for q := 0; q < nic.Queues(); q++ {
		queue := q
		var dec packet.Decoded // per-queue scratch, reused zero-alloc
		eng.Queue(q).Loop(func(p *wirecap.Packet) {
			if err := packet.Decode(p.Data, &dec); err != nil {
				stage.NoteUndecodable()
				return
			}
			stage.Update(queue, &dec, vtime.Time(p.Timestamp))
		})
	}

	traffic := sim.ReplayBorder(nic, wirecap.BorderOptions{Seconds: 2, Seed: 3})
	sim.Run()

	st := eng.Stats()
	rep := stage.Report()
	fmt.Printf("offered %d packets, captured %d, analyzed %d (%d bytes), %d undecodable\n",
		traffic.Sent(), st.Received, rep.Updates, rep.Bytes, rep.Undecodable)
	fmt.Printf("flow table: %d resident, %d evicted (bounded at 4096)\n\n",
		rep.Flows.Resident, rep.Flows.Evictions)

	fmt.Println("top flows by bytes (exact, bounded table):")
	fmt.Printf("%-52s %10s %12s\n", "flow", "packets", "bytes")
	for _, f := range rep.Flows.Top {
		fmt.Printf("%-52s %10d %12d\n", f.Flow, f.Packets, f.Bytes)
	}

	fmt.Println("\nheavy hitters (space-saving, byte counts with error bounds):")
	for _, hh := range rep.HeavyHitters {
		fmt.Printf("%-52s %12d bytes (±%d), ~%d packets (sketch)\n",
			hh.Flow, hh.Bytes, hh.Err, hh.EstPackets)
	}

	fmt.Println("\nsuperspreader candidates (distinct destinations per source):")
	for i, sp := range rep.Superspreaders {
		if i >= 5 {
			break
		}
		fmt.Printf("%-20s ~%d distinct destinations (bound %d)\n",
			sp.Src, sp.Estimate, sp.Bound)
	}
}
