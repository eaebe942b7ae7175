package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/vtime"
)

// Record is the recorder's full state, frozen for export. Every slice
// is in a deterministic order (packets by arrival id, drops and
// actions in event order, the profile sorted by key), so marshaling a
// Record — and therefore the Chrome export built from it — is
// byte-identical across identical seeded runs.
type Record struct {
	Scenario    string     `json:"scenario"`
	End         vtime.Time `json:"end_ns"`
	SampleEvery uint32     `json:"sample_every"`
	// Domain is the tag of the actor that produced this record, when it
	// is a per-actor slice of a fleet run (see Tag / MergeRecords). 0 — and
	// omitted from JSON — for ordinary single-host records, keeping
	// their exports byte-identical.
	Domain int `json:"domain,omitempty"`

	Packets      []PacketTrace       `json:"packets"`
	Drops        []DropRecord        `json:"drops"`
	DropTotals   map[string]uint64   `json:"drop_totals"`
	StageProfile []StageProfileEntry `json:"stage_profile"`
	FaultWindows []FaultWindow       `json:"fault_windows"`
	Actions      []ActionRecord      `json:"actions"`

	// TruncatedPackets / TruncatedDrops count sampled packets and drop
	// records that were NOT kept because MaxPackets / MaxDrops was hit
	// (drop_totals stays complete regardless). Nonzero values mean the
	// packet list / drop list is a prefix, not the whole story.
	TruncatedPackets uint64 `json:"truncated_packets"`
	TruncatedDrops   uint64 `json:"truncated_drops"`

	// Fleet plane (all empty — and elided from JSON — outside fleet
	// runs, keeping single-host exports byte-identical to before).
	Journeys          []Journey      `json:"journeys,omitempty"`
	FleetEvents       []FleetEvent   `json:"fleet_events,omitempty"`
	TruncatedJourneys uint64         `json:"truncated_journeys,omitempty"`
	Health            []HealthSeries `json:"health,omitempty"`
}

// Record freezes the recorder's state. The recorder stays usable (the
// snapshot copies nothing it later mutates in place, except the stamp
// slices, which only grow).
func (r *Recorder) Record(scenario string, end vtime.Time) Record {
	rec := Record{
		Scenario:         scenario,
		End:              end,
		SampleEvery:      1,
		DropTotals:       map[string]uint64{},
		TruncatedPackets: 0,
		TruncatedDrops:   0,
	}
	if r == nil {
		return rec
	}
	rec.SampleEvery = r.cfg.SampleEvery
	rec.Packets = r.pkts
	rec.Drops = r.drops
	rec.TruncatedPackets = r.truncPk
	rec.TruncatedDrops = r.truncDrops
	for c := DropCause(0); c < numCauses; c++ {
		if r.dropTotals[c] > 0 {
			rec.DropTotals[c.String()] = r.dropTotals[c]
		}
	}
	for k, e := range r.prof {
		rec.StageProfile = append(rec.StageProfile, StageProfileEntry{
			Engine: k.engine, Queue: k.queue, Stage: k.stage, Ns: e.ns, Count: e.count,
		})
	}
	sort.Slice(rec.StageProfile, func(i, j int) bool {
		a, b := rec.StageProfile[i], rec.StageProfile[j]
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.Queue != b.Queue {
			return a.Queue < b.Queue
		}
		return a.Stage < b.Stage
	})
	rec.FaultWindows = r.windows
	rec.Actions = r.actions
	rec.Journeys = r.journeys
	rec.FleetEvents = r.fleetEvts
	rec.TruncatedJourneys = r.truncJ
	return rec
}

// chromeEvent is one Chrome trace-event (about:tracing / Perfetto
// "JSON Array with metadata" format).
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"` // microseconds
	Dur  float64    `json:"dur,omitempty"`
	PID  int        `json:"pid"` // NIC id
	TID  int        `json:"tid"` // queue / ring id
	S    string     `json:"s,omitempty"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Pkt   int64  `json:"pkt,omitempty"`
	Flow  string `json:"flow,omitempty"`
	Cause string `json:"cause,omitempty"`
	Count uint64 `json:"count,omitempty"`
	Arg   int64  `json:"arg,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
	OtherData       Record        `json:"otherData"`
}

func us(t vtime.Time) float64 { return float64(t) / 1e3 }

// chromeEvents flattens the record into trace events: one duration
// slice per stage transition of each sampled packet (named after the
// stage the packet reached, spanning the wait to reach it), one slice
// per fault window, and instants for drops and recovery actions.
func (rec *Record) chromeEvents() []chromeEvent {
	var evs []chromeEvent
	for i := range rec.Packets {
		p := &rec.Packets[i]
		for j := 1; j < len(p.Stamps); j++ {
			prev, cur := p.Stamps[j-1], p.Stamps[j]
			evs = append(evs, chromeEvent{
				Name: cur.Stage.String(), Ph: "X",
				TS: us(prev.At), Dur: us(cur.At - prev.At),
				PID: p.NIC, TID: p.Queue,
				Args: chromeArgs{Pkt: int64(p.ID), Flow: p.FlowS, Cause: p.Drop},
			})
		}
	}
	for _, w := range rec.FaultWindows {
		end := w.Close
		if end < 0 {
			end = rec.End
		}
		tid := w.Queue
		if tid < 0 {
			tid = 0
		}
		evs = append(evs, chromeEvent{
			Name: "fault:" + w.Kind, Ph: "X",
			TS: us(w.Open), Dur: us(end - w.Open),
			PID: w.NIC, TID: tid,
			Args: chromeArgs{Arg: int64(w.ID)},
		})
	}
	for _, d := range rec.Drops {
		tid := d.Queue
		if tid < 0 {
			tid = 0
		}
		evs = append(evs, chromeEvent{
			Name: "drop:" + d.Cause, Ph: "i", TS: us(d.At),
			PID: d.NIC, TID: tid, S: "t",
			Args: chromeArgs{Pkt: d.Pkt, Cause: d.Cause, Count: d.Count, Arg: int64(d.Fault)},
		})
	}
	for _, a := range rec.Actions {
		tid := a.Queue
		if tid < 0 {
			tid = 0
		}
		evs = append(evs, chromeEvent{
			Name: "action:" + a.Kind, Ph: "i", TS: us(a.At),
			PID: a.NIC, TID: tid, S: "t",
			Args: chromeArgs{Arg: a.Arg},
		})
	}
	// Fleet journeys: per-host tracks plus a fleet merge lane. Each
	// stamp-to-stamp hop is a duration slice on the track of the host
	// that owns the destination stamp; aggregation-side stamps
	// (Host == -1) land on the merge lane, so a stitched journey reads
	// as a slice chain hopping from its host's track to the fleet lane.
	for i := range rec.Journeys {
		j := &rec.Journeys[i]
		for k := 1; k < len(j.Stamps); k++ {
			prev, cur := j.Stamps[k-1], j.Stamps[k]
			pid := cur.Host
			if pid < 0 {
				pid = chromeMergeLane
			}
			evs = append(evs, chromeEvent{
				Name: cur.Stage.String(), Ph: "X",
				TS: us(prev.At), Dur: us(cur.At - prev.At),
				PID: pid, TID: 0,
				Args: chromeArgs{Flow: j.FlowS, Arg: int64(j.Seq), Cause: j.Drop},
			})
		}
	}
	return evs
}

// chromeMergeLane is the PID of the fleet merge lane — far above any
// host id, so aggregation-side journey slices get their own track.
const chromeMergeLane = 65536

// WriteChrome writes the record as Chrome trace-event JSON. The full
// Record rides along under "otherData", so one file feeds both the
// Chrome/Perfetto UI and cmd/wiretrace (via ReadRecord). Output is
// deterministic: struct-ordered fields, sorted map keys, and
// pre-sorted slices.
func (rec *Record) WriteChrome(w io.Writer) error {
	f := chromeFile{
		DisplayTimeUnit: "ns",
		TraceEvents:     rec.chromeEvents(),
		OtherData:       *rec,
	}
	b, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadRecord parses a WriteChrome export back into its Record.
func ReadRecord(r io.Reader) (Record, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return Record{}, fmt.Errorf("obs: parsing trace: %w", err)
	}
	return f.OtherData, nil
}

// WriteForensics writes the human-readable forensics report: drop
// totals with their typed causes, the ledger, fault windows, recovery
// actions, and the per-stage virtual-time profile.
func (rec *Record) WriteForensics(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("== drop forensics: %s (end %dns) ==\n", rec.Scenario, rec.End)
	bw.printf("sampling: 1/%d flows traced, %d packet traces", rec.SampleEvery, len(rec.Packets))
	if rec.TruncatedPackets > 0 {
		bw.printf(" (+%d sampled past cap, untraced)", rec.TruncatedPackets)
	}
	bw.printf("\n\n-- drop totals by cause --\n")
	if len(rec.DropTotals) == 0 {
		bw.printf("(no drops)\n")
	}
	keys := make([]string, 0, len(rec.DropTotals))
	for k := range rec.DropTotals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bw.printf("%-20s %d\n", k, rec.DropTotals[k])
	}

	bw.printf("\n-- drop ledger (%d records", len(rec.Drops))
	if rec.TruncatedDrops > 0 {
		bw.printf(", %d past cap uncounted here but in totals", rec.TruncatedDrops)
	}
	bw.printf(") --\n")
	for _, d := range rec.Drops {
		bw.printf("%12dns  %-20s nic=%d queue=%-2d count=%-5d", d.At, d.Cause, d.NIC, d.Queue, d.Count)
		if d.Pkt >= 0 {
			bw.printf(" pkt=%d", d.Pkt)
		}
		if d.Fault >= 0 {
			bw.printf(" fault=%d", d.Fault)
		}
		bw.printf("\n")
	}

	bw.printf("\n-- fault windows --\n")
	if len(rec.FaultWindows) == 0 {
		bw.printf("(none)\n")
	}
	for _, f := range rec.FaultWindows {
		bw.printf("#%-3d %-14s nic=%d queue=%-2d open=%dns", f.ID, f.Kind, f.NIC, f.Queue, f.Open)
		if f.Close >= 0 {
			bw.printf(" close=%dns", f.Close)
		} else {
			bw.printf(" close=(never)")
		}
		bw.printf("\n")
	}

	bw.printf("\n-- recovery / pool actions --\n")
	if len(rec.Actions) == 0 {
		bw.printf("(none)\n")
	}
	for _, a := range rec.Actions {
		bw.printf("%12dns  %-16s nic=%d queue=%-2d arg=%d\n", a.At, a.Kind, a.NIC, a.Queue, a.Arg)
	}

	bw.printf("\n-- stage profile (virtual ns by engine/queue/stage) --\n")
	for _, e := range rec.StageProfile {
		bw.printf("%-12s q%-2d %-14s %12dns  x%d\n", e.Engine, e.Queue, e.Stage, e.Ns, e.Count)
	}
	return bw.err
}

// WriteTimeline writes one packet's full stage timeline.
func (rec *Record) WriteTimeline(w io.Writer, p *PacketTrace) error {
	bw := &errWriter{w: w}
	bw.printf("packet %d: %s  nic=%d queue=%d len=%d hash=%08x\n",
		p.ID, p.FlowS, p.NIC, p.Queue, p.Len, p.Hash)
	var prev vtime.Time
	for i, s := range p.Stamps {
		if i == 0 {
			bw.printf("  %12dns  %-14s\n", s.At, s.Stage)
		} else {
			bw.printf("  %12dns  %-14s (+%dns)\n", s.At, s.Stage, s.At-prev)
		}
		prev = s.At
	}
	if p.Drop != "" {
		bw.printf("  dropped: %s\n", p.Drop)
	}
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
