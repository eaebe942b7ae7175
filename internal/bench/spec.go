// Package bench is the experiment harness: for every table and figure in
// the WireCAP paper's evaluation (§2.2 and §4) it builds the workload,
// runs the engines on the simulated substrate, and renders the same rows
// or series the paper reports. The cmd/experiments binary and the
// repository-level benchmarks drive it.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/nic"
	"repro/internal/vtime"
)

// EngineKind names a capture engine family.
type EngineKind int

// Engine families compared in the paper.
const (
	KindDNA EngineKind = iota
	KindNETMAP
	KindPFRing
	KindPSIOE
	KindRawSocket
	KindWireCAPBasic
	KindWireCAPAdvanced
)

// EngineSpec identifies one engine configuration, e.g.
// WireCAP-A-(256,100,60%).
type EngineSpec struct {
	Kind EngineKind
	M, R int // WireCAP geometry
	T    int // WireCAP advanced-mode threshold percent
}

// Shorthand constructors for the specs the paper's figures use.
var (
	DNA       = EngineSpec{Kind: KindDNA}
	NETMAP    = EngineSpec{Kind: KindNETMAP}
	PFRing    = EngineSpec{Kind: KindPFRing}
	PSIOE     = EngineSpec{Kind: KindPSIOE}
	RawSocket = EngineSpec{Kind: KindRawSocket}
)

// WireCAPB returns a basic-mode spec.
func WireCAPB(m, r int) EngineSpec { return EngineSpec{Kind: KindWireCAPBasic, M: m, R: r} }

// WireCAPA returns an advanced-mode spec.
func WireCAPA(m, r, t int) EngineSpec {
	return EngineSpec{Kind: KindWireCAPAdvanced, M: m, R: r, T: t}
}

// Name renders the paper's engine naming.
func (s EngineSpec) Name() string {
	switch s.Kind {
	case KindDNA:
		return "DNA"
	case KindNETMAP:
		return "NETMAP"
	case KindPFRing:
		return "PF_RING"
	case KindPSIOE:
		return "PSIOE"
	case KindRawSocket:
		return "PF_PACKET"
	case KindWireCAPBasic:
		return fmt.Sprintf("WireCAP-B-(%d,%d)", s.M, s.R)
	case KindWireCAPAdvanced:
		return fmt.Sprintf("WireCAP-A-(%d,%d,%d%%)", s.M, s.R, s.T)
	default:
		return fmt.Sprintf("engine-%d", int(s.Kind))
	}
}

// Build constructs the engine over NIC n delivering to h.
func (s EngineSpec) Build(sched *vtime.Scheduler, n *nic.NIC, costs engines.CostModel, h engines.Handler) (engines.Engine, error) {
	return s.BuildWith(sched, n, costs, h, nil)
}

// BuildWith constructs the engine like Build, letting mutate adjust the
// WireCAP core configuration first (it is ignored for non-WireCAP
// kinds, which have no config). Analytics runs use it to install the
// chunk batch filter.
func (s EngineSpec) BuildWith(sched *vtime.Scheduler, n *nic.NIC, costs engines.CostModel, h engines.Handler, mutate func(*core.Config)) (engines.Engine, error) {
	build := func(cfg core.Config) (engines.Engine, error) {
		if mutate != nil {
			mutate(&cfg)
		}
		return core.New(sched, n, cfg, h)
	}
	switch s.Kind {
	case KindDNA:
		return engines.NewDNA(sched, n, costs, h), nil
	case KindNETMAP:
		return engines.NewNETMAP(sched, n, costs, h), nil
	case KindPFRing:
		return engines.NewPFRing(sched, n, costs, h, engines.PFRingBufferSlots), nil
	case KindPSIOE:
		return engines.NewPSIOE(sched, n, costs, h), nil
	case KindRawSocket:
		return engines.NewRawSocket(sched, n, costs, h), nil
	case KindWireCAPBasic:
		return build(core.Config{M: s.M, R: s.R, Costs: costs})
	case KindWireCAPAdvanced:
		return build(core.Config{
			M: s.M, R: s.R, Mode: core.Advanced, ThresholdPct: s.T, Costs: costs,
		})
	default:
		return nil, fmt.Errorf("bench: unknown engine kind %d", s.Kind)
	}
}

// SupportsForwarding reports whether the engine can run the Figure 13
// middlebox experiment. The paper could not make multi_pkt_handler
// forward under NETMAP (per-queue sync limitation), and PF_PACKET is
// hopeless, so those are excluded exactly as the paper excludes them.
func (s EngineSpec) SupportsForwarding() bool {
	return s.Kind != KindNETMAP && s.Kind != KindRawSocket
}
