package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ExtensionDPDK is the comparison the paper defers to future work
// ("Comparing WireCAP with DPDK (with offloading) will be our future
// research"): WireCAP's chunk-granular, engine-level offloading against a
// DPDK-style framework where the application must steer packets itself,
// one packet at a time, over software rings.
//
// The workload steers a high packet rate at one queue of a 4-queue NIC
// with moderately loaded handlers (x=3): one thread cannot keep up, four
// can. The interesting quantity besides the drop rate is the *hot
// thread's CPU time*: DPDK's application-layer offloading spends donor
// CPU on every steered packet, while WireCAP's capture thread moves whole
// chunks by metadata.
func ExtensionDPDK(opt Options) (Table, error) {
	opt.setDefaults()
	t := Table{
		ID:    "Extension E2",
		Title: "WireCAP vs DPDK offloading (7 Mp/s at one of 4 queues, x=3)",
		Columns: []string{"engine", "drop rate",
			"hot app-thread CPU", "hot capture CPU", "pkts steered/offloaded"},
	}
	const (
		x = 3
		// 7 Mp/s exceeds one x=3 thread (3.3 Mp/s) and also exceeds what
		// a donor thread can re-steer packet by packet (~6 Mp/s at 165 ns
		// of poll+steer per packet) — but not WireCAP's chunk-granular
		// capture thread.
		rate = 7_000_000
	)
	for _, spec := range []EngineSpec{
		{Kind: KindDPDK}, {Kind: KindDPDKAppOffload}, WireCAPA(256, 100, 60),
	} {
		res, err := Host{
			Spec: spec, Queues: 4, X: x,
			Source: trace.NewConstantRate(trace.ConstantRateConfig{
				Packets: opt.ScalePackets, Queues: 4, SingleQueue: true,
				LineRateBps: rate * 84 * 8, Seed: opt.Seed,
			}),
		}.Run()
		if err != nil {
			return Table{}, err
		}
		// The hot thread's CPU time, and the packets moved off it: DPDK
		// steers one packet at a time, WireCAP offloads M-packet chunks.
		var appBusy, capBusy vtime.Time
		var moved uint64
		switch e := res.Engine.(type) {
		case *engines.DPDK:
			appBusy, moved = e.QueueBusy(0), e.Steered(0)
		case *core.Engine:
			appBusy, capBusy = e.AppBusy(0), e.CaptureBusy(0)
			moved = chunksOffloaded(res) * uint64(spec.M)
		}
		dur := res.Last.Seconds()
		capCPU := "-"
		if capBusy > 0 {
			capCPU = fmt.Sprintf("%.1f%%", 100*capBusy.Seconds()/dur)
		}
		t.Rows = append(t.Rows, []string{
			spec.Name(),
			pct(res.DropRate()),
			fmt.Sprintf("%.1f%%", 100*appBusy.Seconds()/dur),
			capCPU,
			fmt.Sprintf("%d", moved),
		})
	}
	return t, nil
}
