package bench

import (
	"fmt"
	"io"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// This file holds the ablation and extension studies DESIGN.md §5 calls
// out: design choices the paper fixes that the simulator lets us vary.

// AblationFlush compares WireCAP with and without the partial-chunk
// timeout flush, at several timeout values, on a light trickle where
// chunks rarely fill: the flush trades a little copying for bounded
// delivery latency (and, without it, a trickle is never delivered at
// all).
func AblationFlush(opt Options) (Table, error) {
	opt.setDefaults()
	t := Table{
		ID:    "Ablation A1",
		Title: "Partial-chunk flush: delivery vs latency on a 5 kp/s trickle (M=256)",
		Columns: []string{"flush timeout", "delivered", "of sent",
			"delay p50", "delay p99", "max", "flush copies"},
	}
	for _, timeout := range []vtime.Time{-1, 500 * vtime.Microsecond,
		2 * vtime.Millisecond, 10 * vtime.Millisecond} {
		res, err := Host{
			Spec: WireCAPB(256, 100), Queues: 1, Delays: true,
			Core: func(c *core.Config) { c.FlushTimeout = timeout },
			Source: trace.NewConstantRate(trace.ConstantRateConfig{
				Packets: 5000, LineRateBps: 5000 * 84 * 8, Seed: opt.Seed, // 5 kp/s for 1 s
			}),
		}.Run()
		if err != nil {
			return Table{}, err
		}
		label := timeout.String()
		if timeout < 0 {
			label = "disabled"
		}
		row := []string{label, fmt.Sprintf("%d", res.Handler.Processed), fmt.Sprintf("%d", res.Sent)}
		row = append(row, delayCells(res.Handler)...)
		t.Rows = append(t.Rows, append(row,
			fmt.Sprintf("%d", res.Engine.(*core.Engine).QueueStats(0).ChunksFlushed)))
	}
	return t, nil
}

// AblationOffloadPolicy compares the offload-target policies (the paper
// uses least-loaded) under a single-queue overload with idle buddies.
func AblationOffloadPolicy(opt Options) (Table, error) {
	opt.setDefaults()
	t := Table{
		ID:      "Ablation A2",
		Title:   "Offload target policy under single-queue overload (4 queues, x=300)",
		Columns: []string{"policy", "drop rate", "chunks offloaded"},
	}
	policies := []struct {
		name string
		p    core.OffloadPolicy
	}{
		{"shortest-queue", core.OffloadShortest},
		{"round-robin", core.OffloadRoundRobin},
		{"random", core.OffloadRandom},
	}
	for _, pol := range policies {
		res, err := Host{
			Spec: WireCAPA(256, 100, 0), Queues: 4, X: 300,
			Core: func(c *core.Config) { c.Policy, c.Seed = pol.p, opt.Seed },
			Source: trace.NewConstantRate(trace.ConstantRateConfig{
				Packets: 200_000, Queues: 4, SingleQueue: true,
				LineRateBps: 130_000 * 84 * 8, Seed: opt.Seed,
			}),
		}.Run()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			pol.name,
			pct(res.DropRate()),
			fmt.Sprintf("%d", chunksOffloaded(res)),
		})
	}
	return t, nil
}

// AblationSteering contrasts RSS with round-robin NIC steering (the
// paper's §2.3 "first approach"): round-robin balances perfectly — no
// drops — but sprays each flow across threads, destroying the flow
// affinity application logic depends on.
func AblationSteering(opt Options) (Table, error) {
	opt.setDefaults()
	t := Table{
		ID:      "Ablation A3",
		Title:   "NIC steering policy on the border trace (6 queues, x=300, DNA)",
		Columns: []string{"steering", "drop rate", "flows split across threads"},
	}
	for _, rr := range []bool{false, true} {
		var steering nic.Steering
		name := "RSS (per-flow)"
		if rr {
			steering = nic.NewRoundRobin(6)
			name = "round-robin"
		}
		h := &flowAffinityHandler{
			cost:  engines.DefaultCosts().HandlerCost(300),
			queue: make(map[packet.FlowKey]int),
			split: make(map[packet.FlowKey]bool),
		}
		res, err := Host{
			Spec: DNA, Queues: 6, Steering: steering,
			Handler: func(*metrics.Registry) engines.Handler { return h },
			Source: trace.NewBorder(trace.BorderConfig{
				Queues: 6, Duration: vtime.Time(32 * opt.Scale * float64(vtime.Second)), Seed: opt.Seed,
			}),
		}.Run()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			pct(ratio(res.Sent-h.processed, res.Sent)),
			fmt.Sprintf("%d of %d", len(h.split), len(h.queue)),
		})
	}
	return t, nil
}

// delayCells renders a run's delivery delay p50, p99 and max ("-" when
// nothing was delivered).
func delayCells(h *app.PktHandler) []string {
	if h.Processed == 0 {
		return []string{"-", "-", "-"}
	}
	return []string{
		vtime.Time(h.DelayHist.Percentile(0.5)).String(),
		vtime.Time(h.DelayHist.Percentile(0.99)).String(),
		h.MaxDelay.String(),
	}
}

// chunksOffloaded sums the chunks a WireCAP run offloaded over all its
// queues.
func chunksOffloaded(res Result) uint64 {
	e := res.Engine.(*core.Engine)
	var n uint64
	for q := 0; q < res.NIC.RxQueues(); q++ {
		n += e.QueueStats(q).ChunksOffloaded
	}
	return n
}

// flowAffinityHandler records which thread (queue) saw each flow.
type flowAffinityHandler struct {
	cost      vtime.Time
	processed uint64
	queue     map[packet.FlowKey]int
	split     map[packet.FlowKey]bool
	dec       packet.Decoded
}

func (h *flowAffinityHandler) Cost(int, []byte) vtime.Time { return h.cost }

func (h *flowAffinityHandler) Handle(q int, data []byte, ts vtime.Time, done func()) {
	h.processed++
	if err := packet.Decode(data, &h.dec); err == nil {
		if prev, ok := h.queue[h.dec.Flow]; ok && prev != q {
			h.split[h.dec.Flow] = true
		} else {
			h.queue[h.dec.Flow] = q
		}
	}
	done()
}

// Extension40GE runs WireCAP at 40 GbE — the paper's stated next step
// ("In the near future, we will apply WireCAP for 40 GE networks") —
// showing how many queues a 40 GbE port needs before the per-queue
// packet rate fits a single x=0 thread.
func Extension40GE(opt Options) (Table, error) {
	opt.setDefaults()
	t := Table{
		ID:      "Extension E1",
		Title:   "WireCAP-A-(256,100,60%) at 40 GbE wire rate, 64B frames, x=0",
		Columns: []string{"queues", "offered Mp/s", "drop rate"},
	}
	for _, queues := range []int{2, 4, 8} {
		res, err := Host{
			Spec: WireCAPA(256, 100, 60), Queues: queues, LineRateBps: 40e9,
			Source: trace.NewConstantRate(trace.ConstantRateConfig{
				Packets: opt.ScalePackets, Queues: queues,
				LineRateBps: 40e9, Seed: opt.Seed,
			}),
		}.Run()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", queues),
			fmt.Sprintf("%.1f", float64(res.Sent)/res.Last.Seconds()/1e6),
			pct(ratio(res.Sent-uint64(res.Handler.Processed), res.Sent)),
		})
	}
	return t, nil
}

// AblationTimestamp quantifies the paper's §5c concern: batch (chunk)
// processing delays delivery, so a capture stack that stamped packets in
// software at delivery time — rather than in hardware at DMA time, as
// this simulator's NIC does — would see timestamp errors that grow with
// the batch size M and shrink with the packet rate. The reported mean
// delay *is* that error.
func AblationTimestamp(opt Options) (Table, error) {
	opt.setDefaults()
	t := Table{
		ID:      "Ablation A4",
		Title:   "Software-timestamp error vs chunk size and rate (flush 2 ms)",
		Columns: []string{"M", "rate", "sw-stamp error p50", "p99", "max"},
	}
	for _, m := range []int{64, 256, 1024} {
		for _, rate := range []float64{10_000, 100_000, 1_000_000} {
			res, err := Host{
				Spec: WireCAPB(m, 40960/m), Queues: 1, Delays: true,
				Core: func(c *core.Config) { c.FlushTimeout = 2 * vtime.Millisecond },
				Source: trace.NewConstantRate(trace.ConstantRateConfig{
					Packets: uint64(rate / 10), LineRateBps: rate * 84 * 8, Seed: opt.Seed,
				}),
			}.Run()
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, append([]string{
				fmt.Sprintf("%d", m), fmt.Sprintf("%.0f p/s", rate),
			}, delayCells(res.Handler)...))
		}
	}
	return t, nil
}

// Ablations runs every ablation/extension study.
func Ablations(opt Options, w io.Writer) error {
	for _, f := range []func(Options) (Table, error){
		AblationFlush, AblationOffloadPolicy, AblationSteering, AblationTimestamp,
		Extension40GE, ExtensionDPDK,
	} {
		t, err := f(opt)
		if err != nil {
			return err
		}
		if err := opt.render(t, w); err != nil {
			return err
		}
	}
	return nil
}
