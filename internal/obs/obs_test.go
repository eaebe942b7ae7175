package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/packet"
)

func flow(i uint32) packet.FlowKey {
	return packet.FlowKey{
		Src: packet.IPv4{10, 0, byte(i >> 8), byte(i)}, Dst: packet.IPv4{10, 1, 0, 1},
		SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

// identity hash: the flow's low 32 bits of SrcPort decide sampling, so
// tests choose sampled/unsampled flows directly.
func testRecorder(sampleEvery uint32) *Recorder {
	return New(Config{
		FlowHash:    func(f packet.FlowKey) uint32 { return uint32(f.SrcPort) },
		SampleEvery: sampleEvery,
	})
}

// TestSamplingDeterminism: the sampling rule is a pure function of the
// flow hash — the same flow gives the same decision on every call, and
// exactly the hash ≡ 0 (mod SampleEvery) flows are traced.
func TestSamplingDeterminism(t *testing.T) {
	r := testRecorder(8)
	for i := uint32(0); i < 64; i++ {
		f := flow(i)
		want := (1000+i)%8 == 0
		if got := r.Sampled(f); got != want {
			t.Fatalf("Sampled(flow %d) = %v, want %v", i, got, want)
		}
		if r.Sampled(f) != r.Sampled(f) {
			t.Fatalf("Sampled(flow %d) is not stable", i)
		}
	}
	var nilRec *Recorder
	if nilRec.Sampled(flow(0)) {
		t.Fatal("nil recorder samples")
	}
}

// TestPacketLifecycle walks one sampled packet through the WireCAP
// path (arrive → DMA → cell → handoff → deliver → processed → recycle)
// and checks the trace stamps every stage in order.
func TestPacketLifecycle(t *testing.T) {
	r := testRecorder(8) // SrcPort 1000 ≡ 0 (mod 8): flow(0) is sampled
	f := flow(0)
	chunk := ChunkID(2, 5)

	r.PktArrive(0, 2, f, 60, 100)
	r.PktDMA(0, 2, 7, 200)
	r.DescToCell(0, 2, 7, chunk, 3, 300)
	r.ChunkStage(0, chunk, StageChunkHandoff, 400)
	r.CellDeliver(0, chunk, 3, 0, 2, 500)
	r.Processed(0, 2, 600)
	r.ChunkRecycle(0, chunk, 700)

	rec := r.Record("t", 1000)
	if len(rec.Packets) != 1 {
		t.Fatalf("got %d traces, want 1", len(rec.Packets))
	}
	p := rec.Packets[0]
	want := []Stage{StageWire, StageDMAWrite, StageDescReady, StageChunkHandoff,
		StageDeliver, StageProcessed, StageRecycle}
	if len(p.Stamps) != len(want) {
		t.Fatalf("got %d stamps (%v), want %d", len(p.Stamps), p.Stamps, len(want))
	}
	for i, s := range want {
		if p.Stamps[i].Stage != s {
			t.Fatalf("stamp %d = %s, want %s", i, p.Stamps[i].Stage, s)
		}
		if i > 0 && p.Stamps[i].At < p.Stamps[i-1].At {
			t.Fatalf("stamps not monotonic: %v", p.Stamps)
		}
	}
	if p.Drop != "" {
		t.Fatalf("clean delivery marked dropped: %q", p.Drop)
	}
}

// TestIDsCountEveryArrival: packet ids are global arrival sequence
// numbers over sampled and unsampled packets alike, so an id names the
// same wire packet in any run of the workload.
func TestIDsCountEveryArrival(t *testing.T) {
	r := testRecorder(8)
	r.PktArrive(0, 0, flow(1), 60, 10) // 1001 % 8 != 0: unsampled
	r.PktArrive(0, 0, flow(2), 60, 20) // unsampled
	r.PktArrive(0, 0, flow(8), 60, 30) // 1008 % 8 == 0: sampled, id 2
	rec := r.Record("t", 100)
	if len(rec.Packets) != 1 || rec.Packets[0].ID != 2 {
		t.Fatalf("sampled packet id = %+v, want one trace with ID 2", rec.Packets)
	}
}

// TestDropLedger: drops are recorded for every packet (sampled or not),
// totals stay complete past the record cap, and a sampled packet's
// trace terminates with the drop stage and cause.
func TestDropLedger(t *testing.T) {
	r := New(Config{
		FlowHash:    func(f packet.FlowKey) uint32 { return uint32(f.SrcPort) },
		SampleEvery: 8, MaxDrops: 2,
	})
	r.PktArrive(0, 1, flow(0), 60, 10) // sampled
	r.PendingDrop(DropDescDepletion, 0, 1, 11)
	r.PktArrive(0, 1, flow(1), 60, 20) // unsampled
	r.PendingDrop(DropDescDepletion, 0, 1, 21)
	r.DropN(DropLink, 0, -1, 5, 30) // past MaxDrops: counted, not listed

	rec := r.Record("t", 100)
	if got := rec.DropTotals["desc_depletion"]; got != 2 {
		t.Fatalf("desc_depletion total = %d, want 2", got)
	}
	if got := rec.DropTotals["link_down"]; got != 5 {
		t.Fatalf("link_down total = %d, want 5", got)
	}
	if len(rec.Drops) != 2 || rec.TruncatedDrops != 1 {
		t.Fatalf("ledger has %d records, %d truncated; want 2 and 1",
			len(rec.Drops), rec.TruncatedDrops)
	}
	if rec.Drops[0].Pkt != 0 || rec.Drops[1].Pkt != -1 {
		t.Fatalf("ledger pkt ids = %d, %d; want 0 (sampled) and -1", rec.Drops[0].Pkt, rec.Drops[1].Pkt)
	}
	p := rec.Packets[0]
	if p.Drop != "desc_depletion" || p.Stamps[len(p.Stamps)-1].Stage != StageDrop {
		t.Fatalf("dropped trace not terminated: drop=%q stamps=%v", p.Drop, p.Stamps)
	}
	if r.dropTotals[DropDescDepletion] != 2 {
		t.Fatalf("dropTotals = %d, want 2", r.dropTotals[DropDescDepletion])
	}
}

// TestFaultAnnotation: a drop inside an open fault window carries the
// window's id; one outside carries -1.
func TestFaultAnnotation(t *testing.T) {
	r := testRecorder(8)
	id := r.FaultOpen("queue_hang", 0, 1, 50)
	r.DropN(DropQueueHang, 0, 1, 1, 60) // inside the window, same queue
	r.DropN(DropQueueHang, 0, 2, 1, 70) // other queue: not annotated
	r.FaultClose("queue_hang", 0, 1, 80)
	r.DropN(DropQueueHang, 0, 1, 1, 90) // window closed
	rec := r.Record("t", 100)
	if rec.Drops[0].Fault != id || rec.Drops[1].Fault != -1 || rec.Drops[2].Fault != -1 {
		t.Fatalf("fault annotations = %d,%d,%d; want %d,-1,-1",
			rec.Drops[0].Fault, rec.Drops[1].Fault, rec.Drops[2].Fault, id)
	}
	if w := rec.FaultWindows[0]; w.Open != 50 || w.Close != 80 {
		t.Fatalf("window = %+v, want open=50 close=80", w)
	}
}

// TestStageCostProfile: costs accumulate per (engine, queue, stage) and
// export sorted.
func TestStageCostProfile(t *testing.T) {
	r := testRecorder(8)
	r.StageCost("E", 1, "poll", 10)
	r.StageCost("E", 1, "poll", 5)
	r.StageCost("E", 0, "process", 7)
	rec := r.Record("t", 100)
	if len(rec.StageProfile) != 2 {
		t.Fatalf("profile has %d entries, want 2", len(rec.StageProfile))
	}
	if e := rec.StageProfile[0]; e.Queue != 0 || e.Stage != "process" || e.Ns != 7 || e.Count != 1 {
		t.Fatalf("profile[0] = %+v", e)
	}
	if e := rec.StageProfile[1]; e.Queue != 1 || e.Stage != "poll" || e.Ns != 15 || e.Count != 2 {
		t.Fatalf("profile[1] = %+v", e)
	}
}

// TestStageAndCauseJSONRoundTrip: names survive a marshal/unmarshal
// cycle, the property ReadRecord relies on.
func TestStageAndCauseJSONRoundTrip(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Stage
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("stage %s round-tripped to %s", s, back)
		}
	}
	var bad Stage
	if err := json.Unmarshal([]byte(`"no_such_stage"`), &bad); err == nil {
		t.Fatal("unknown stage name unmarshalled without error")
	}
	if len(CauseNames()) != int(numCauses) {
		t.Fatalf("CauseNames lists %d causes, want %d", len(CauseNames()), numCauses)
	}
}

// TestChromeExportRoundTrip: WriteChrome → ReadRecord returns the
// record, and two exports of the same recorder are byte-identical.
func TestChromeExportRoundTrip(t *testing.T) {
	r := testRecorder(8)
	r.PktArrive(0, 1, flow(0), 60, 10)
	r.PktDMA(0, 1, 3, 20)
	r.DescDeliver(0, 1, 3, 30)
	r.Processed(0, 1, 40)
	r.DropN(DropLink, 0, -1, 2, 50)
	r.Action("re_steer", 0, 1, 32, 60)
	rec := r.Record("round", 100)

	var a, b bytes.Buffer
	if err := rec.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same record differ")
	}
	back, err := ReadRecord(&a)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario != "round" || back.End != 100 ||
		len(back.Packets) != 1 || len(back.Drops) != 1 || len(back.Actions) != 1 {
		t.Fatalf("round-tripped record lost data: %+v", back)
	}
	if back.Packets[0].Stamps[1].Stage != StageDMAWrite {
		t.Fatalf("stamps lost stage names: %+v", back.Packets[0].Stamps)
	}
}

// TestNilRecorderZeroAllocs is the disabled contract: a nil *Recorder
// must no-op every hook without allocating — the property that lets
// every hot path keep its hooks unconditionally.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	f := flow(0)
	if a := testing.AllocsPerRun(1000, func() {
		r.PktArrive(0, 0, f, 60, 1)
		r.PendingDrop(DropDescDepletion, 0, 0, 1)
		r.DropN(DropLink, 0, -1, 3, 1)
		r.PktDMA(0, 0, 1, 1)
		r.DescDrop(DropDeliveryOverflow, 0, 0, 1, 1)
		r.DescToFifo(0, 0, 1, 2, 1)
		r.FifoDeliver(0, 0, 2, 1)
		r.DescDeliver(0, 0, 1, 1)
		_ = r.DescClaim(0, 0, 1, 1)
		r.IDDeliver(0, 1)
		r.IDProcessed(0, 1)
		r.Processed(0, 0, 1)
		r.DescToCell(0, 0, 1, 0, 0, 1)
		r.CellMove(0, 0, 0, 1, 1, 1)
		r.ChunkStage(0, 0, StageChunkHandoff, 1)
		r.CellDeliver(0, 0, 0, 0, 0, 1)
		r.ChunkDrop(DropReclaim, 0, 0, 0, 4, 1)
		r.ChunkRecycle(0, 0, 1)
		r.AbandonQueue(DropQuarantineBacklog, 0, 0, 1)
		_ = r.FaultOpen("k", 0, 0, 1)
		r.FaultClose("k", 0, 0, 1)
		r.Action("k", 0, 0, 1, 1)
		r.StageCost("e", 0, "s", 1)
		_ = r.Sampled(f)
	}); a > 0 {
		t.Errorf("nil-recorder hooks allocate %.2f/op, want 0", a)
	}
	// A nil recorder also exports a valid empty record.
	rec := r.Record("nil", 0)
	if rec.SampleEvery != 1 || len(rec.Packets) != 0 {
		t.Fatalf("nil Record = %+v", rec)
	}
}
