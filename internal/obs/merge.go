package obs

import (
	"sort"

	"repro/internal/vtime"
)

// This file is the observability half of the fleet (DESIGN.md §13-14):
// each fleet actor — the aggregator and every host — owns a private
// Recorder, and after the run the per-actor Records are merged into one
// fleet-wide Record in canonical order. The merge is pure data
// plumbing — sort keys only, no clocks, no maps iterated unsorted — so
// the merged export is byte-identical on any machine.

// Tag labels the record and every sub-record in it with the logical
// actor that produced it (fleet.Run: 0 for the aggregator, h+1 for host
// h). Tag 0 marshals as absent (omitempty), so untagged single-host
// exports carry no domain field.
func (rec *Record) Tag(domain int) {
	rec.Domain = domain
	for i := range rec.Packets {
		rec.Packets[i].Domain = domain
	}
	for i := range rec.Drops {
		rec.Drops[i].Domain = domain
	}
	for i := range rec.FaultWindows {
		rec.FaultWindows[i].Domain = domain
	}
	for i := range rec.Actions {
		rec.Actions[i].Domain = domain
	}
}

// MergeRecords merges per-actor records into one record in canonical
// order: every event slice sorts by (virtual time, domain, original
// position), packets by (first-stamp time, domain, id), the stage
// profile by summed bucket key, and drop totals by summed cause. Fault
// window ids stay per-domain scoped (a DropRecord's Fault refers to a
// window with the same Domain), exactly as queue numbers stay per-NIC
// scoped.
//
// Sorting is stable and every tiebreak ends in a key that is unique
// within its domain, so the result is a pure function of the inputs —
// independent of merge call order.
func MergeRecords(scenario string, end vtime.Time, recs []Record) Record {
	out := Record{
		Scenario:    scenario,
		End:         end,
		SampleEvery: 1,
		DropTotals:  map[string]uint64{},
	}
	for i := range recs {
		r := &recs[i]
		if r.SampleEvery > out.SampleEvery {
			out.SampleEvery = r.SampleEvery
		}
		out.Packets = append(out.Packets, r.Packets...)
		out.Drops = append(out.Drops, r.Drops...)
		out.FaultWindows = append(out.FaultWindows, r.FaultWindows...)
		out.Actions = append(out.Actions, r.Actions...)
		out.StageProfile = append(out.StageProfile, r.StageProfile...)
		out.TruncatedPackets += r.TruncatedPackets
		out.TruncatedDrops += r.TruncatedDrops
		out.Journeys = append(out.Journeys, r.Journeys...)
		out.FleetEvents = append(out.FleetEvents, r.FleetEvents...)
		out.TruncatedJourneys += r.TruncatedJourneys
		for k, v := range r.DropTotals {
			out.DropTotals[k] += v
		}
	}

	sort.SliceStable(out.Packets, func(i, j int) bool {
		a, b := &out.Packets[i], &out.Packets[j]
		at, bt := packetStart(a), packetStart(b)
		if at != bt {
			return at < bt
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.ID < b.ID
	})
	sort.SliceStable(out.Drops, func(i, j int) bool {
		a, b := &out.Drops[i], &out.Drops[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Domain < b.Domain
	})
	sort.SliceStable(out.FaultWindows, func(i, j int) bool {
		a, b := &out.FaultWindows[i], &out.FaultWindows[j]
		if a.Open != b.Open {
			return a.Open < b.Open
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.ID < b.ID
	})
	sort.SliceStable(out.Actions, func(i, j int) bool {
		a, b := &out.Actions[i], &out.Actions[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Domain < b.Domain
	})
	// Journeys sort by their steer time; (At, Host) is already unique
	// because a host processes one offer per virtual instant, Seq breaks
	// the (impossible in practice) remainder. FleetEvents are all
	// aggregator-side, where (At, Host, Seq) is unique.
	sort.SliceStable(out.Journeys, func(i, j int) bool {
		a, b := &out.Journeys[i], &out.Journeys[j]
		at, bt := journeyStart(a), journeyStart(b)
		if at != bt {
			return at < bt
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Seq < b.Seq
	})
	sort.SliceStable(out.FleetEvents, func(i, j int) bool {
		a, b := &out.FleetEvents[i], &out.FleetEvents[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Seq < b.Seq
	})

	// Sum stage-profile buckets across domains: the profile answers
	// "where does virtual time go per stage", which aggregates the same
	// way the metric counters do.
	type bucket struct {
		ns    vtime.Time
		count uint64
	}
	sums := map[profKey]*bucket{}
	for _, e := range out.StageProfile {
		k := profKey{engine: e.Engine, queue: e.Queue, stage: e.Stage}
		b := sums[k]
		if b == nil {
			b = &bucket{}
			sums[k] = b
		}
		b.ns += e.Ns
		b.count += e.Count
	}
	out.StageProfile = out.StageProfile[:0]
	for k, b := range sums {
		out.StageProfile = append(out.StageProfile, StageProfileEntry{
			Engine: k.engine, Queue: k.queue, Stage: k.stage, Ns: b.ns, Count: b.count,
		})
	}
	sort.Slice(out.StageProfile, func(i, j int) bool {
		a, b := out.StageProfile[i], out.StageProfile[j]
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.Queue != b.Queue {
			return a.Queue < b.Queue
		}
		return a.Stage < b.Stage
	})
	return out
}

// packetStart is a packet's wire-arrival time (its first stamp).
func packetStart(p *PacketTrace) vtime.Time {
	if len(p.Stamps) == 0 {
		return 0
	}
	return p.Stamps[0].At
}

// journeyStart is a journey's steer time (its first stamp).
func journeyStart(j *Journey) vtime.Time {
	if len(j.Stamps) == 0 {
		return 0
	}
	return j.Stamps[0].At
}
