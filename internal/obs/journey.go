package obs

import (
	"io"
	"sort"

	"repro/internal/packet"
	"repro/internal/vtime"
)

// This file is the cross-host half of the flight recorder (DESIGN.md
// §14): per-packet journeys through the fleet aggregation plane. A
// journey is opened at steering time on the owning host's recorder,
// stamped through capture, batching, and link transfer there, and —
// after the per-domain records merge — stitched with the aggregator
// recorder's merge/reject events into one end-to-end span list:
//
//	steer → host_ingress → agg_enqueue → agg_link → merge_emit
//
// with drop (host_lost_crash, host_lost_brownout_shed,
// in_flight_link_headdrop, staleness_reject, link_down) as the terminal
// stage wherever the packet died instead. Sampling follows the same
// per-flow Toeplitz rule as packet traces — keyed by the steering hash,
// so a sampled flow stays sampled across a re-steer, which is what lets
// the stitcher show the same flow's journeys on two hosts.
//
// Every hook is nil-safe and free on a nil *Recorder, exactly like the
// single-host hooks (ci-gate's obs_disabled_fleet_hooks budget pins it).

// JourneyStamp is one stage transition in a journey. Host is the fleet
// host that recorded the stamp, -1 for aggregator-side stamps
// (merge_emit / staleness rejection), which is how a rendered journey
// shows the hop off the capture host.
type JourneyStamp struct {
	Stage Stage      `json:"stage"`
	At    vtime.Time `json:"at"`
	Host  int        `json:"host"`
}

// Journey is the recorded fleet life of one sampled packet. Seq is the
// owning host's capture sequence (unique per host, survives restarts);
// it stays 0 when the packet died before capture (wire drop, capture
// shed), in which case the steer stamp's time identifies the offer.
type Journey struct {
	Host    int            `json:"host"`
	Seq     uint64         `json:"seq"`
	Flow    packet.FlowKey `json:"-"`
	FlowS   string         `json:"flow"`
	FlowSeq uint64         `json:"flow_seq"`
	Stamps  []JourneyStamp `json:"stamps"`
	// Drop is the terminal drop cause name, "" when the journey reached
	// merge_emit (or the run ended with the packet still in flight).
	Drop string `json:"drop,omitempty"`
}

// FleetEvent is one aggregator-side journey event, keyed by the
// (host, capture sequence) identity the batches carry. The stitcher
// joins these with the host-side journeys after the record merge.
type FleetEvent struct {
	Host  int        `json:"host"`
	Seq   uint64     `json:"seq"`
	Stage Stage      `json:"stage"` // StageMergeEmit, or StageDrop for rejects
	Cause string     `json:"cause,omitempty"`
	At    vtime.Time `json:"at"`
}

// ---- host-side journey hooks --------------------------------------

// JourneySteer opens a journey for an offered frame on its steering
// owner. Unsampled flows clear the pending slot and record nothing.
func (r *Recorder) JourneySteer(host int, flow packet.FlowKey, flowSeq uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	r.jPending = -1
	if r.cfg.FlowHash(flow)%r.cfg.SampleEvery != 0 {
		return
	}
	if len(r.journeys) >= r.cfg.MaxJourneys {
		r.truncJ++
		return
	}
	r.journeys = append(r.journeys, Journey{
		Host: host, Flow: flow, FlowS: flow.String(), FlowSeq: flowSeq,
		Stamps: []JourneyStamp{{Stage: StageSteer, At: ts, Host: host}},
	})
	r.jPending = int32(len(r.journeys) - 1)
}

// JourneyDrop terminates the pending journey before capture (wire drop
// of a dead host's frame, backlog shed). The ledger entry is the
// caller's job — DropN counts every packet, this traces sampled ones.
func (r *Recorder) JourneyDrop(cause DropCause, ts vtime.Time) {
	if r == nil || r.jPending < 0 {
		return
	}
	j := &r.journeys[r.jPending]
	j.Stamps = append(j.Stamps, JourneyStamp{Stage: StageDrop, At: ts, Host: j.Host})
	j.Drop = cause.String()
	r.jPending = -1
}

// JourneyCapture stamps host ingress on the pending journey and binds
// it to the host capture sequence for the aggregation-plane hooks.
func (r *Recorder) JourneyCapture(seq uint64, ts vtime.Time) {
	if r == nil || r.jPending < 0 {
		return
	}
	j := &r.journeys[r.jPending]
	j.Seq = seq
	j.Stamps = append(j.Stamps, JourneyStamp{Stage: StageHostIngress, At: ts, Host: j.Host})
	r.jBySeq[seq] = r.jPending
	r.jPending = -1
}

// jStamp appends a host-side stage to the journey bound to seq.
func (r *Recorder) jStamp(seq uint64, s Stage, ts vtime.Time) {
	ji, ok := r.jBySeq[seq]
	if !ok {
		return
	}
	j := &r.journeys[ji]
	j.Stamps = append(j.Stamps, JourneyStamp{Stage: s, At: ts, Host: j.Host})
}

// JourneyEnqueue stamps the batch close: the packet moved from the open
// batch onto the host's aggregation-link queue.
func (r *Recorder) JourneyEnqueue(seq uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	r.jStamp(seq, StageAggEnqueue, ts)
}

// JourneyLink stamps a successful link transfer: the batch is on the
// wire to the aggregator and can no longer be lost host-side.
func (r *Recorder) JourneyLink(seq uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	r.jStamp(seq, StageAggLink, ts)
}

// JourneyLost terminates a captured journey host-side: crash state loss
// or the bounded link queue giving up. The journey is unbound — nothing
// further can happen to the packet.
func (r *Recorder) JourneyLost(seq uint64, cause DropCause, ts vtime.Time) {
	if r == nil {
		return
	}
	ji, ok := r.jBySeq[seq]
	if !ok {
		return
	}
	delete(r.jBySeq, seq)
	j := &r.journeys[ji]
	j.Stamps = append(j.Stamps, JourneyStamp{Stage: StageDrop, At: ts, Host: j.Host})
	j.Drop = cause.String()
}

// ---- aggregator-side journey hooks --------------------------------

// FleetEmit records a merge emission for (host, seq) on the aggregator
// recorder. Emissions happen on the aggregator, which holds no journey
// state — the stitcher joins them after the record merge.
func (r *Recorder) FleetEmit(host int, seq uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	r.fleetEvts = append(r.fleetEvts, FleetEvent{Host: host, Seq: seq, Stage: StageMergeEmit, At: ts})
}

// FleetReject records a staleness-gate rejection for (host, seq).
func (r *Recorder) FleetReject(host int, seq uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	r.fleetEvts = append(r.fleetEvts, FleetEvent{
		Host: host, Seq: seq, Stage: StageDrop, Cause: DropStalenessReject.String(), At: ts,
	})
}

// ---- stitching and rendering --------------------------------------

// StitchJourneys joins the host-side journeys with the aggregator-side
// fleet events, in place: each (host, seq) match appends the merge or
// reject stamp (Host -1) and rejects set the terminal drop cause. Call
// it on the merged fleet record, after MergeRecords has put both halves
// in canonical order; the join is then a pure function of the record.
func (rec *Record) StitchJourneys() {
	type key struct {
		host int
		seq  uint64
	}
	idx := make(map[key]int, len(rec.Journeys))
	for i := range rec.Journeys {
		if rec.Journeys[i].Seq > 0 {
			idx[key{rec.Journeys[i].Host, rec.Journeys[i].Seq}] = i
		}
	}
	for _, ev := range rec.FleetEvents {
		i, ok := idx[key{ev.Host, ev.Seq}]
		if !ok {
			continue
		}
		j := &rec.Journeys[i]
		j.Stamps = append(j.Stamps, JourneyStamp{Stage: ev.Stage, At: ev.At, Host: -1})
		if ev.Cause != "" {
			j.Drop = ev.Cause
		}
	}
}

// FlowHosts summarizes which hosts each sampled flow's journeys ran on,
// in first-steer order — ≥2 hosts means the flow crossed a re-steer.
// Sorted by flow string; deterministic.
type FlowHosts struct {
	Flow     string
	Hosts    []int
	Journeys int
}

// FlowJourneys groups the record's journeys by flow.
func (rec *Record) FlowJourneys() []FlowHosts {
	byFlow := make(map[string]*FlowHosts)
	order := make([]string, 0)
	for i := range rec.Journeys {
		j := &rec.Journeys[i]
		f := byFlow[j.FlowS]
		if f == nil {
			f = &FlowHosts{Flow: j.FlowS}
			byFlow[j.FlowS] = f
			order = append(order, j.FlowS)
		}
		f.Journeys++
		seen := false
		for _, h := range f.Hosts {
			if h == j.Host {
				seen = true
				break
			}
		}
		if !seen {
			f.Hosts = append(f.Hosts, j.Host)
		}
	}
	sort.Strings(order)
	out := make([]FlowHosts, 0, len(order))
	for _, flow := range order {
		out = append(out, *byFlow[flow])
	}
	return out
}

// WriteJourneys renders the canonical journey dump: one line per
// journey in record order, then the flows that crossed a re-steer. The
// output is a pure function of the record — ci-gate byte-compares it
// across two traced runs.
func (rec *Record) WriteJourneys(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("== journeys: %s (end %dns) ==\n", rec.Scenario, rec.End)
	bw.printf("sampling: 1/%d flows, %d journeys", rec.SampleEvery, len(rec.Journeys))
	if rec.TruncatedJourneys > 0 {
		bw.printf(" (+%d sampled past cap, untraced)", rec.TruncatedJourneys)
	}
	bw.printf("\n\n")
	for i := range rec.Journeys {
		j := &rec.Journeys[i]
		bw.printf("host %d seq %-6d %-42s", j.Host, j.Seq, j.FlowS)
		var prev vtime.Time
		for k, s := range j.Stamps {
			if k == 0 {
				bw.printf(" %s@%dns", s.Stage, s.At)
			} else {
				bw.printf(" %s@+%dns", s.Stage, s.At-prev)
			}
			prev = s.At
		}
		if j.Drop != "" {
			bw.printf("  [%s]", j.Drop)
		} else if len(j.Stamps) > 0 && j.Stamps[len(j.Stamps)-1].Stage == StageMergeEmit {
			bw.printf("  [ok]")
		} else {
			bw.printf("  [in-flight]")
		}
		bw.printf("\n")
	}
	bw.printf("\n-- flows crossing a re-steer --\n")
	crossed := 0
	for _, f := range rec.FlowJourneys() {
		if len(f.Hosts) < 2 {
			continue
		}
		crossed++
		bw.printf("%-42s hosts", f.Flow)
		for i, h := range f.Hosts {
			if i > 0 {
				bw.printf("->")
			} else {
				bw.printf(" ")
			}
			bw.printf("%d", h)
		}
		bw.printf("  (%d journeys)\n", f.Journeys)
	}
	if crossed == 0 {
		bw.printf("(none)\n")
	}
	return bw.err
}

// FleetLedgerEntry is one cell of the per-host × per-cause ×
// per-interval forensics ledger derived from the drop records.
type FleetLedgerEntry struct {
	Host     int    `json:"host"`
	Cause    string `json:"cause"`
	Interval int    `json:"interval"` // [Interval*Δ, (Interval+1)*Δ)
	Count    uint64 `json:"count"`
}

// FleetLedger buckets the record's drop ledger by (host, cause,
// interval of length interval ns). In a fleet record the drop NIC field
// is the host id, so the ledger re-derives the conservation equation
// per host, per cause, per time window — fleet.Run and cmd/ci-gate both
// check that the fleet-cause cells sum exactly to
// FleetReceived − Aggregated. Sorted by (host, cause, interval).
func (rec *Record) FleetLedger(interval vtime.Time) []FleetLedgerEntry {
	if interval <= 0 {
		interval = 250 * vtime.Microsecond
	}
	type key struct {
		host     int
		cause    string
		interval int
	}
	sums := make(map[key]uint64)
	for i := range rec.Drops {
		d := &rec.Drops[i]
		sums[key{d.NIC, d.Cause, int(d.At / interval)}] += d.Count
	}
	out := make([]FleetLedgerEntry, 0, len(sums))
	for k, n := range sums {
		out = append(out, FleetLedgerEntry{Host: k.host, Cause: k.cause, Interval: k.interval, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		return a.Interval < b.Interval
	})
	return out
}

// WriteFleetLedger renders the forensics ledger as a fixed-width table.
func (rec *Record) WriteFleetLedger(w io.Writer, interval vtime.Time) error {
	if interval <= 0 {
		interval = 250 * vtime.Microsecond
	}
	bw := &errWriter{w: w}
	bw.printf("== fleet forensics ledger: %s (interval %dns) ==\n", rec.Scenario, interval)
	bw.printf("%-5s %-24s %-9s %s\n", "host", "cause", "interval", "count")
	var total uint64
	for _, e := range rec.FleetLedger(interval) {
		bw.printf("%-5d %-24s %-9d %d\n", e.Host, e.Cause, e.Interval, e.Count)
		total += e.Count
	}
	bw.printf("total %d packets across all causes\n", total)
	return bw.err
}

// SumCause totals one cause across a slice of ledger entries, per host
// (host -1 sums every host).
func SumCause(led []FleetLedgerEntry, cause DropCause, host int) uint64 {
	name := cause.String()
	var n uint64
	for _, e := range led {
		if e.Cause == name && (host < 0 || e.Host == host) {
			n += e.Count
		}
	}
	return n
}
