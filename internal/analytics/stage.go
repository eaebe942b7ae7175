package analytics

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/vtime"
)

// Config sizes the stage. Zero values take the defaults below — a
// working set small enough to stay cache-resident at line rate.
type Config struct {
	// SketchWidth/SketchDepth size the count-min sketch (defaults
	// 2048x4: overestimates beyond 2N/2048 with probability <= 1/16).
	SketchWidth int
	SketchDepth int
	// TopK is the heavy-hitter table capacity (default 32).
	TopK int
	// Superspreaders is the candidate-source table capacity (default 32).
	Superspreaders int
	// FlowCapacity bounds the exact per-flow table (default 1024).
	FlowCapacity int
	// Engine labels the obs profiler spans (default "analytics").
	Engine string
	// UpdateCost is the virtual cost recorded per update span (default
	// 120ns — the modeled budget of four table probes; profiling only,
	// the caller's Cost() decides what the scheduler charges).
	UpdateCost vtime.Time
}

// DefaultUpdateCost is the per-packet span cost recorded when
// Config.UpdateCost is zero.
const DefaultUpdateCost = 120 * vtime.Nanosecond

// Stage is the streaming-analytics consumer stage: one Update per
// delivered packet feeds the sketch, the heavy-hitter and
// superspreader trackers, and the flow table. Steady-state updates
// allocate nothing (cmd/ci-gate pins this budget at 0). A Stage is
// single-consumer, like the engine queue that feeds it.
type Stage struct {
	cm     *CMSketch
	hh     *SpaceSaving[packet.FlowKey]
	spread *SpreadTracker
	flows  *FlowTable

	trace  *obs.Recorder
	engine string
	cost   vtime.Time

	updates     uint64
	undecodable uint64
	bytes       uint64
}

// New builds a Stage. reg (optional) gains analytics_* series sampled
// from the stage's own counters at snapshot time; rec (optional, nil =
// no-op) receives an "analytics" profiler span per update.
func New(cfg Config, reg *metrics.Registry, rec *obs.Recorder) *Stage {
	if cfg.SketchWidth == 0 {
		cfg.SketchWidth = 2048
	}
	if cfg.SketchDepth == 0 {
		cfg.SketchDepth = 4
	}
	if cfg.TopK == 0 {
		cfg.TopK = 32
	}
	if cfg.Superspreaders == 0 {
		cfg.Superspreaders = 32
	}
	if cfg.FlowCapacity == 0 {
		cfg.FlowCapacity = 1024
	}
	if cfg.Engine == "" {
		cfg.Engine = "analytics"
	}
	if cfg.UpdateCost == 0 {
		cfg.UpdateCost = DefaultUpdateCost
	}
	s := &Stage{
		cm:     NewCMSketch(cfg.SketchWidth, cfg.SketchDepth),
		hh:     NewSpaceSaving[packet.FlowKey](cfg.TopK),
		spread: NewSpreadTracker(cfg.Superspreaders),
		flows:  NewFlowTable(cfg.FlowCapacity),
		trace:  rec,
		engine: cfg.Engine,
		cost:   cfg.UpdateCost,
	}
	if reg != nil {
		reg.CounterFunc("analytics_updates_total", func() uint64 { return s.updates })
		reg.CounterFunc("analytics_bytes_total", func() uint64 { return s.bytes })
		reg.CounterFunc("analytics_undecodable_total", func() uint64 { return s.undecodable })
		reg.CounterFunc("analytics_flow_evictions_total", func() uint64 { return s.flows.Evictions() })
		reg.CounterFunc("analytics_hh_replacements_total", func() uint64 { return s.hh.Replacements() })
		reg.CounterFunc("analytics_spread_replacements_total", func() uint64 { return s.spread.Replacements() })
		reg.GaugeFunc("analytics_flows_resident", func() int64 { return int64(s.flows.Len()) })
	}
	return s
}

// Update feeds one decoded packet into every structure. queue tags the
// profiler span; ts is the packet's delivery time (virtual).
//
//wirecap:hotpath
func (s *Stage) Update(queue int, d *packet.Decoded, ts vtime.Time) {
	s.updates++
	size := len(d.Frame)
	s.bytes += uint64(size)
	flow := d.Flow
	h := flowHash(&flow)
	s.cm.Add(h, 1)
	s.hh.Add(flow, uint64(size))
	s.spread.Add(flow.Src, flow.Dst)
	s.flows.Update(flow, size, d.TCPFlags, ts)
	s.trace.StageCost(s.engine, queue, "analytics", s.cost)
}

// NoteUndecodable counts a delivered frame the decoder rejected; the
// stage sees no update for it.
//
//wirecap:hotpath
func (s *Stage) NoteUndecodable() { s.undecodable++ }

// flowHash is FNV-1a over the 13 key bytes, inline (hash/fnv allocates
// a hasher; this must not).
//
//wirecap:hotpath
func flowHash(f *packet.FlowKey) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(f.Src[0])) * fnvPrime
	h = (h ^ uint64(f.Src[1])) * fnvPrime
	h = (h ^ uint64(f.Src[2])) * fnvPrime
	h = (h ^ uint64(f.Src[3])) * fnvPrime
	h = (h ^ uint64(f.Dst[0])) * fnvPrime
	h = (h ^ uint64(f.Dst[1])) * fnvPrime
	h = (h ^ uint64(f.Dst[2])) * fnvPrime
	h = (h ^ uint64(f.Dst[3])) * fnvPrime
	h = (h ^ uint64(f.SrcPort>>8)) * fnvPrime
	h = (h ^ uint64(f.SrcPort&0xff)) * fnvPrime
	h = (h ^ uint64(f.DstPort>>8)) * fnvPrime
	h = (h ^ uint64(f.DstPort&0xff)) * fnvPrime
	h = (h ^ uint64(f.Proto)) * fnvPrime
	return h
}
