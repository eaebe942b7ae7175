package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/analytics"
	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// HandlerReport summarizes the pkt_handler side of a run: how many
// packets were processed and matched, and — when delivery-latency
// accounting was enabled — the capture-to-processing delay
// distribution.
type HandlerReport struct {
	Processed uint64   `json:"processed"`
	Matched   uint64   `json:"matched"`
	Bytes     uint64   `json:"bytes"`
	TxDropped uint64   `json:"tx_dropped"`
	PerQueue  []uint64 `json:"per_queue"`

	DelayCount uint64 `json:"delay_count,omitempty"`
	DelaySumNs int64  `json:"delay_sum_ns,omitempty"`
	DelayP50Ns int64  `json:"delay_p50_ns,omitempty"`
	DelayP99Ns int64  `json:"delay_p99_ns,omitempty"`
	DelayMaxNs int64  `json:"delay_max_ns,omitempty"`
}

// RunReport is the structured, deterministic record of one engine run:
// the paper-level outcome (sent/forwarded/drop rate), the per-queue
// fate accounting, the handler summary, and the full metrics snapshot
// taken at the virtual time the run drained. Identical seeds produce
// byte-identical reports, which is what cmd/ci-gate keys on.
type RunReport struct {
	Scenario  string               `json:"scenario"`
	Engine    string               `json:"engine"`
	Sent      uint64               `json:"sent"`
	Forwarded uint64               `json:"forwarded,omitempty"`
	DropRate  float64              `json:"drop_rate"`
	EndNs     vtime.Time           `json:"end_ns"`
	Totals    engines.QueueStats   `json:"totals"`
	PerQueue  []engines.QueueStats `json:"per_queue"`
	Handler   *HandlerReport       `json:"handler,omitempty"`
	Analytics *analytics.Report    `json:"analytics,omitempty"`
	Metrics   metrics.Snapshot     `json:"metrics"`
}

// Report assembles the RunReport for a completed run. The scenario name
// is caller-chosen (it keys the baseline entry in cmd/ci-gate).
func (r Result) Report(scenario string) RunReport {
	rep := RunReport{
		Scenario:  scenario,
		Engine:    r.Spec.Name(),
		Sent:      r.Sent,
		Forwarded: r.Forwarded,
		DropRate:  r.DropRate(),
		EndNs:     r.End,
		Totals:    r.Stats.Totals(),
		PerQueue:  r.Stats.PerQueue,
		Analytics: r.Analytics,
	}
	if h := r.Handler; h != nil {
		hr := &HandlerReport{
			Processed: h.Processed,
			Matched:   h.Matched,
			Bytes:     h.Bytes,
			TxDropped: h.TxDropped,
			PerQueue:  h.PerQueue,
		}
		if h.DelayHist.Count() > 0 {
			hr.DelayCount = h.DelayHist.Count()
			hr.DelaySumNs = h.DelayHist.Sum()
			hr.DelayP50Ns = h.DelayHist.Percentile(0.50)
			hr.DelayP99Ns = h.DelayHist.Percentile(0.99)
			hr.DelayMaxNs = h.DelayHist.Max()
		}
		rep.Handler = hr
	}
	if r.Metrics != nil {
		rep.Metrics = r.Metrics.Snapshot(r.End)
	}
	return rep
}

// Digest is a stable fingerprint of the full report: FNV-1a over the
// compact JSON encoding. Any observable divergence — a counter off by
// one, a latency bucket shifted — changes the digest.
func (rr RunReport) Digest() string {
	b, err := json.Marshal(rr)
	if err != nil {
		// The report is plain data; Marshal cannot fail in practice.
		panic(fmt.Sprintf("bench: marshaling RunReport: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// KeyMetrics flattens the headline numbers cmd/ci-gate compares against
// tolerance bands. Counter totals come from the metrics snapshot so the
// gate also covers the instrumentation wiring itself.
func (rr RunReport) KeyMetrics() map[string]float64 {
	m := map[string]float64{
		"sent":           float64(rr.Sent),
		"drop_rate":      rr.DropRate,
		"received":       float64(rr.Totals.Received),
		"capture_drops":  float64(rr.Totals.CaptureDrops),
		"delivery_drops": float64(rr.Totals.DeliveryDrops),
		"delivered":      float64(rr.Totals.Delivered),
		"end_ns":         float64(rr.EndNs),
	}
	if rr.Forwarded > 0 {
		m["forwarded"] = float64(rr.Forwarded)
	}
	if rr.Handler != nil {
		m["processed"] = float64(rr.Handler.Processed)
		m["matched"] = float64(rr.Handler.Matched)
	}
	if v := rr.Totals.CorruptDrops; v > 0 {
		m["corrupt_drops"] = float64(v)
	}
	if v := rr.Totals.ReclaimDrops; v > 0 {
		m["reclaim_drops"] = float64(v)
	}
	if a := rr.Analytics; a != nil {
		m["analytics_updates"] = float64(a.Updates)
		m["analytics_flows_resident"] = float64(a.Flows.Resident)
		m["analytics_flow_evictions"] = float64(a.Flows.Evictions)
	}
	// Probe the counter families in sorted name order, never map order:
	// the wirelint maporder analyzer flags the collect-loop below if the
	// sort goes missing, so the emission order stays deterministic by
	// construction.
	probes := map[string]string{
		"engine_copies_total":                "copies",
		"engine_syscalls_total":              "syscalls",
		"wirecap_chunks_captured_total":      "chunks_captured",
		"wirecap_chunks_offloaded_total":     "chunks_offloaded",
		"faults_injected_total":              "faults_injected",
		"faults_corrupted_frames_total":      "corrupted_frames",
		"wirecap_quarantines_total":          "quarantines",
		"wirecap_handler_failovers_total":    "handler_failovers",
		"wirecap_chunks_reclaimed_total":     "chunks_reclaimed",
		"wirecap_alloc_retries_total":        "alloc_retries",
		"wirecap_chunk_filtered_total":       "chunk_filtered",
		"wirecap_bus_rejected_total":         "bus_rejected",
		"wirecap_fleet_aggregated_total":     "fleet_aggregated",
		"wirecap_fleet_quarantines_total":    "fleet_quarantines",
		"wirecap_fleet_readmissions_total":   "fleet_readmissions",
		"wirecap_fleet_resteers_total":       "fleet_resteers",
		"wirecap_fleet_steer_moves_total":    "fleet_steer_moves",
		"wirecap_fleet_stale_rejected_total": "fleet_stale_rejected",
		"wirecap_fleet_retries_total":        "fleet_retries",
		"wirecap_fleet_analytics_shed_total": "fleet_analytics_shed",
		// The fleet conservation counters: with these probed, the gate's
		// metric bands state FleetReceived == Aggregated + HostLost +
		// InFlightDropped in baselines.json itself, and cmd/wiredump
		// -stats shows the whole equation for fleet reports.
		"wirecap_fleet_received_total":             "fleet_received",
		"wirecap_fleet_wire_dropped_total":         "fleet_wire_dropped",
		"wirecap_fleet_capture_dropped_total":      "fleet_capture_dropped",
		"wirecap_fleet_host_lost_total":            "fleet_host_lost",
		"wirecap_fleet_inflight_dropped_total":     "fleet_inflight_dropped",
		"wirecap_fleet_late_merges_total":          "fleet_late_merges",
		"wirecap_fleet_analytics_aggregated_total": "fleet_analytics_aggregated",
	}
	names := make([]string, 0, len(probes))
	for name := range probes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := rr.Metrics.CounterTotal(name); v > 0 {
			m[probes[name]] = float64(v)
		}
	}
	return m
}
