// Package obs is the packet-lifecycle flight recorder: deterministic
// per-packet spans, a drop-forensics ledger, and a virtual-time stage
// profiler layered over the simulator's metrics aggregates.
//
// The recorder answers the questions the paper argues a capture engine
// must make answerable (§2.1, §3.2.1): where a given packet waited,
// which copies it paid for, and exactly why a drop happened —
// descriptor depletion at the NIC versus ring-buffer exhaustion in the
// engine versus reclamation under recovery. It records three things:
//
//   - Spans: virtual-clock-stamped stage transitions (wire → DMA write
//     → descriptor ready → copy → chunk handoff → deliver → processed
//     → recycle) for a deterministically sampled subset of packets.
//     Sampling is per-flow and Toeplitz-keyed: a flow is traced iff
//     FlowHash(flow) % SampleEvery == 0, so the same flows are traced
//     on every run of a seeded workload.
//   - Drop ledger: one typed record per drop event — every drop, not
//     just sampled ones — with queue/ring/time context and the id of
//     any overlapping fault window. Per-cause totals are always
//     complete even when the record list hits its cap, so the ledger
//     can be checked for conservation against the metrics counters.
//   - Stage profiler: accumulated virtual nanoseconds per
//     (engine, queue, stage), charged at the same sites the simulator
//     charges virtual cost.
//
// Determinism contract: the recorder is a pure observer. It registers
// no metric series, charges no virtual time, touches no RNG, and its
// hooks are called at points whose order is already fixed by the
// scheduler — so a run's RunReport digest is identical with tracing on
// or off, and two seeded runs export byte-identical traces.
//
// Disabled contract: a nil *Recorder is valid and every hook on it is
// a no-op that performs zero allocations. Hot paths therefore carry an
// always-present recorder field and call hooks unconditionally, the
// same pattern internal/faults uses for its query methods.
package obs

import (
	"encoding/json"
	"fmt"

	"repro/internal/packet"
	"repro/internal/vtime"
)

// Stage identifies a point in a packet's life. Stages appear in a
// trace in the order the packet actually reached them; engines without
// a stage (Type-II engines have no copy, non-WireCAP engines have no
// chunk handoff) simply never stamp it.
type Stage uint8

const (
	StageWire         Stage = iota // arrived at the NIC on the wire
	StageDMAWrite                  // NIC DMA'd the frame into a descriptor buffer
	StageDescReady                 // descriptor consumed by the capture layer (WireCAP: bound to a chunk cell)
	StageCopy                      // copied (kernel copy, user copy, or flush compaction)
	StageChunkHandoff              // chunk containing the packet handed to a consumer
	StageDeliver                   // delivered to the application handler
	StageProcessed                 // application handler finished with it
	StageRecycle                   // backing buffer recycled to the NIC / pool
	StageDrop                      // dropped (the trace's terminal stage)

	// Fleet journey stages (DESIGN.md §14): the cross-host life of a
	// packet in the aggregation plane, recorded by the journey hooks in
	// journey.go rather than the single-host packet hooks above.
	StageSteer       // steering owner charged the offered frame
	StageHostIngress // captured into the host's open aggregation batch
	StageAggEnqueue  // batch closed and queued on the aggregation link
	StageAggLink     // batch transferred onto the host->aggregator link
	StageMergeEmit   // emitted from the watermark merge into the global feed
	numStages
)

var stageNames = [numStages]string{
	"wire", "dma_write", "desc_ready", "copy", "chunk_handoff",
	"deliver", "processed", "recycle", "drop",
	"steer", "host_ingress", "agg_enqueue", "agg_link", "merge_emit",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// DropCause is the typed reason a packet (or a chunk of packets) was
// dropped. The causes partition the simulator's drop counters exactly:
//
//	CaptureDrops  = DescDepletion + Bus + QueueHang + DescStall
//	DeliveryDrops = DeliveryOverflow + QuarantineBacklog
//	CorruptDrops  = Corrupt
//	ReclaimDrops  = Reclaim
//	LinkDrops     = Link,  Filtered = Filtered
//
// The fleet causes partition the aggregation-plane books the same way
// (DESIGN.md §14):
//
//	FleetReceived − Aggregated = HostLostCrash + InFlightHeadDrop + StalenessReject
//	CaptureDropped             = HostBrownoutShed
type DropCause uint8

const (
	DropDescDepletion     DropCause = iota // no ready descriptor at DMA-write time (ring full)
	DropBus                                // PCIe bus had no bandwidth for the transfer
	DropQueueHang                          // queue hung by a fault window
	DropDescStall                          // descriptor feed stalled by a fault window
	DropLink                               // link down (flap window)
	DropFiltered                           // MAC filter, non-promiscuous mode
	DropDeliveryOverflow                   // engine's delivery ring/FIFO full (ring-buffer exhaustion)
	DropQuarantineBacklog                  // queued work discarded when its queue was quarantined
	DropCorrupt                            // frame-integrity validation tombstoned the cell
	DropReclaim                            // chunk reclaimed under memory pressure or quarantine

	// Fleet causes: the aggregation-plane loss points.
	DropHostLostCrash    // host crash lost the open batch / unsent link queue
	DropHostBrownoutShed // overloaded host shed at capture (backlog cap)
	DropInFlightHeadDrop // bounded link queue gave up on its head (retry exhaustion / hard cap)
	DropStalenessReject  // aggregator rejected a packet older than the emitted frontier
	numCauses
)

var causeNames = [numCauses]string{
	"desc_depletion", "bus", "queue_hang", "desc_stall", "link_down",
	"filtered", "delivery_overflow", "quarantine_backlog", "corrupt", "reclaim",
	"host_lost_crash", "host_lost_brownout_shed", "in_flight_link_headdrop", "staleness_reject",
}

// String returns the cause's snake_case name.
func (c DropCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// MarshalJSON renders the stage as its name, keeping exports readable.
func (s Stage) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a stage name back (for ReadRecord round trips).
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown stage %q", name)
}

// CauseNames lists every drop-cause name in enum order.
func CauseNames() []string {
	out := make([]string, numCauses)
	copy(out, causeNames[:])
	return out
}

// StageStamp is one stage transition in a packet's trace.
type StageStamp struct {
	Stage Stage      `json:"stage"`
	At    vtime.Time `json:"at"`
}

// PacketTrace is the full recorded life of one sampled packet. ID is
// the packet's global arrival sequence number (counted over every
// decoded arrival, sampled or not), so ids are stable across runs and
// name the same wire packet in both.
type PacketTrace struct {
	ID     uint64         `json:"id"`
	Flow   packet.FlowKey `json:"-"`
	FlowS  string         `json:"flow"`
	Hash   uint32         `json:"hash"`
	NIC    int            `json:"nic"`
	Queue  int            `json:"queue"`
	Len    int            `json:"len"`
	Stamps []StageStamp   `json:"stamps"`
	// Drop is the drop cause name when the trace ended in a drop, "".
	Drop string `json:"drop,omitempty"`
	// Domain is the tag of the actor that recorded the trace in a merged
	// fleet record (see Record.Tag); 0 (omitted) in single-host runs.
	Domain int `json:"domain,omitempty"`
}

// DropRecord is one entry in the drop-forensics ledger.
type DropRecord struct {
	At    vtime.Time `json:"at"`
	Cause string     `json:"cause"`
	NIC   int        `json:"nic"`
	Queue int        `json:"queue"` // rx queue / ring, -1 when unknown (pre-steering)
	// Pkt is the traced packet's id when the dropped packet was sampled,
	// -1 otherwise.
	Pkt int64 `json:"pkt"`
	// Count is how many packets this record covers (chunk-level drops
	// cover every good packet left in the chunk).
	Count uint64 `json:"count"`
	// Fault is the id of the fault window open over this (nic, queue)
	// when the drop happened, -1 when none was. In a merged fleet
	// record it refers to the window with the same Domain.
	Fault int32 `json:"fault"`
	// Domain is the recording actor's tag (0 / omitted outside fleets).
	Domain int `json:"domain,omitempty"`
}

// FaultWindow is one fault activation interval.
type FaultWindow struct {
	ID    int32      `json:"id"`
	Kind  string     `json:"kind"`
	NIC   int        `json:"nic"`
	Queue int        `json:"queue"` // -1 for NIC-scoped faults
	Open  vtime.Time `json:"open"`
	Close vtime.Time `json:"close"` // -1 while/if never closed
	// Domain is the recording actor's tag (0 / omitted outside fleets).
	Domain int `json:"domain,omitempty"`
}

// ActionRecord is one annotated recovery or pool event (quarantine,
// re-steer, failover, reclamation, alloc retry, ...).
type ActionRecord struct {
	At    vtime.Time `json:"at"`
	Kind  string     `json:"kind"`
	NIC   int        `json:"nic"`
	Queue int        `json:"queue"`
	Arg   int64      `json:"arg"`
	// Domain is the recording actor's tag (0 / omitted outside fleets).
	Domain int `json:"domain,omitempty"`
}

// StageProfileEntry is accumulated virtual time for one
// (engine, queue, stage) bucket.
type StageProfileEntry struct {
	Engine string     `json:"engine"`
	Queue  int        `json:"queue"`
	Stage  string     `json:"stage"`
	Ns     vtime.Time `json:"ns"`
	Count  uint64     `json:"count"`
}

// Config parameterizes a Recorder.
type Config struct {
	// FlowHash keys the per-flow sampler; bench injects the NIC's
	// Toeplitz RSS hash so sampling follows the same function hardware
	// steers by. Required.
	FlowHash func(packet.FlowKey) uint32
	// SampleEvery traces flows whose hash ≡ 0 (mod SampleEvery).
	// Default 8. 1 traces every flow.
	SampleEvery uint32
	// MaxPackets caps how many packet traces are kept (default 4096);
	// arrivals past the cap are counted, not traced.
	MaxPackets int
	// MaxDrops caps the ledger's record list (default 65536). Per-cause
	// totals are always complete regardless.
	MaxDrops int
	// MaxJourneys caps how many fleet journeys are kept (default 4096);
	// sampled offers past the cap are counted, not traced.
	MaxJourneys int
}

type descKey struct{ nic, ring, desc int }
type fifoKey struct{ nic, ring, slot int }
type cellKey struct {
	nic   int
	chunk uint64
	cell  int
}
type chunkKey struct {
	nic   int
	chunk uint64
}
type procKey struct{ nic, queue int }
type profKey struct {
	engine string
	queue  int
	stage  string
}

type cellEntry struct {
	cell      int
	pkt       int32
	delivered bool
}

type profEntry struct {
	ns    vtime.Time
	count uint64
}

// Recorder is the flight recorder. The zero value is not usable; build
// one with New. A nil *Recorder is a valid disabled recorder: every
// method is a nil-safe no-op.
type Recorder struct {
	cfg Config

	seq     uint64 // global arrival counter (every decoded arrival)
	pkts    []PacketTrace
	truncPk uint64 // sampled arrivals not traced because MaxPackets was hit

	// pending is the index in pkts of the packet currently inside
	// NIC.Deliver (bound between PktArrive and PktDMA/PendingDrop),
	// -1 when none or not sampled. Deliver is synchronous, so a single
	// slot suffices.
	pending int32

	byDesc map[descKey]int32
	byFifo map[fifoKey]int32
	byCell map[cellKey]int32
	cells  map[chunkKey][]cellEntry
	proc   map[procKey][]int32

	drops      []DropRecord
	dropTotals [numCauses]uint64
	truncDrops uint64

	windows []FaultWindow
	actions []ActionRecord

	prof map[profKey]*profEntry

	// Fleet journey state (journey.go). jPending is the journey opened
	// by JourneySteer for the offer currently being processed (-1 when
	// none or unsampled); jBySeq maps a host capture sequence to its
	// journey while the packet is in the aggregation plane.
	journeys  []Journey
	jPending  int32
	jBySeq    map[uint64]int32
	fleetEvts []FleetEvent
	truncJ    uint64
}

// New builds an enabled recorder. cfg.FlowHash must be non-nil.
func New(cfg Config) *Recorder {
	if cfg.FlowHash == nil {
		panic("obs: Config.FlowHash is required")
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 8
	}
	if cfg.MaxPackets == 0 {
		cfg.MaxPackets = 4096
	}
	if cfg.MaxDrops == 0 {
		cfg.MaxDrops = 65536
	}
	if cfg.MaxJourneys == 0 {
		cfg.MaxJourneys = 4096
	}
	return &Recorder{
		cfg:      cfg,
		pending:  -1,
		jPending: -1,
		byDesc:   make(map[descKey]int32),
		byFifo:   make(map[fifoKey]int32),
		byCell:   make(map[cellKey]int32),
		cells:    make(map[chunkKey][]cellEntry),
		proc:     make(map[procKey][]int32),
		prof:     make(map[profKey]*profEntry),
		jBySeq:   make(map[uint64]int32),
	}
}

// Sampled reports whether the recorder traces the flow.
//
//wirecap:hotpath
func (r *Recorder) Sampled(flow packet.FlowKey) bool {
	if r == nil {
		return false
	}
	return r.cfg.FlowHash(flow)%r.cfg.SampleEvery == 0
}

// openFault returns the id of the first fault window open over
// (nic, queue), -1 when none. A NIC-scoped window (Queue == -1)
// matches every queue.
func (r *Recorder) openFault(nic, queue int) int32 {
	for i := range r.windows {
		w := &r.windows[i]
		if w.Close >= 0 || w.NIC != nic {
			continue
		}
		if w.Queue == -1 || w.Queue == queue {
			return w.ID
		}
	}
	return -1
}

//wirecap:hotpath
func (r *Recorder) ledger(cause DropCause, nic, queue int, pkt int64, count uint64, ts vtime.Time) {
	r.dropTotals[cause] += count
	if len(r.drops) >= r.cfg.MaxDrops {
		r.truncDrops++
		return
	}
	r.drops = append(r.drops, DropRecord{ //wirelint:allow hotpath drop ledger is bounded by MaxDrops; recorder is opt-in per run
		At: ts, Cause: cause.String(), NIC: nic, Queue: queue,
		Pkt: pkt, Count: count, Fault: r.openFault(nic, queue),
	})
}

// stamp appends a stage transition to trace pi.
//
//wirecap:hotpath
func (r *Recorder) stamp(pi int32, s Stage, ts vtime.Time) {
	p := &r.pkts[pi]
	p.Stamps = append(p.Stamps, StageStamp{Stage: s, At: ts}) //wirelint:allow hotpath stamps exist only for sampled packets on traced runs
}

// finish terminates trace pi with a drop stamp and cause.
//
//wirecap:hotpath
func (r *Recorder) finish(pi int32, cause DropCause, ts vtime.Time) {
	r.stamp(pi, StageDrop, ts)
	r.pkts[pi].Drop = cause.String()
}

// ---- NIC hooks ----------------------------------------------------

// PktArrive records a decoded arrival steered to queue. It assigns the
// packet its global sequence id and, when the flow is sampled, opens a
// trace and parks it in the pending slot for PktDMA / PendingDrop.
//
//wirecap:hotpath
func (r *Recorder) PktArrive(nic, queue int, flow packet.FlowKey, frameLen int, ts vtime.Time) {
	if r == nil {
		return
	}
	id := r.seq
	r.seq++
	r.pending = -1
	if r.cfg.FlowHash(flow)%r.cfg.SampleEvery != 0 {
		return
	}
	if len(r.pkts) >= r.cfg.MaxPackets {
		r.truncPk++
		return
	}
	r.pkts = append(r.pkts, PacketTrace{ //wirelint:allow hotpath trace store is bounded by MaxPackets; recorder is opt-in per run
		ID: id, Flow: flow, FlowS: flow.String(), Hash: r.cfg.FlowHash(flow), //wirelint:allow hotpathflow flow label formatted once per sampled packet on traced runs only
		NIC: nic, Queue: queue, Len: frameLen,
		Stamps: []StageStamp{{Stage: StageWire, At: ts}}, //wirelint:allow hotpath per sampled packet on traced runs only
	})
	r.pending = int32(len(r.pkts) - 1)
}

// PendingDrop drops the packet parked by PktArrive (or an unsampled
// one: the ledger entry is written either way).
//
//wirecap:hotpath
func (r *Recorder) PendingDrop(cause DropCause, nic, queue int, ts vtime.Time) {
	if r == nil {
		return
	}
	pkt := int64(-1)
	if r.pending >= 0 {
		pkt = int64(r.pkts[r.pending].ID)
		r.finish(r.pending, cause, ts)
		r.pending = -1
	}
	r.ledger(cause, nic, queue, pkt, 1, ts)
}

// DropN records n untraced packet drops (link down, MAC filter —
// causes that fire before the frame is decoded, so no trace exists).
//
//wirecap:hotpath
func (r *Recorder) DropN(cause DropCause, nic, queue int, n uint64, ts vtime.Time) {
	if r == nil || n == 0 {
		return
	}
	r.ledger(cause, nic, queue, -1, n, ts)
}

// PktDMA binds the pending arrival to ring descriptor desc and stamps
// the DMA write.
//
//wirecap:hotpath
func (r *Recorder) PktDMA(nic, ring, desc int, ts vtime.Time) {
	if r == nil || r.pending < 0 {
		return
	}
	r.stamp(r.pending, StageDMAWrite, ts)
	r.byDesc[descKey{nic, ring, desc}] = r.pending
	r.pending = -1
}

// ---- engine hooks -------------------------------------------------

// DescDrop drops the packet bound to a descriptor (delivery-FIFO
// overflow, corrupt tombstone) and writes the ledger entry.
//
//wirecap:hotpath
func (r *Recorder) DescDrop(cause DropCause, nic, ring, desc int, ts vtime.Time) {
	if r == nil {
		return
	}
	k := descKey{nic, ring, desc}
	pkt := int64(-1)
	if pi, ok := r.byDesc[k]; ok {
		pkt = int64(r.pkts[pi].ID)
		r.finish(pi, cause, ts)
		delete(r.byDesc, k)
	}
	r.ledger(cause, nic, ring, pkt, 1, ts)
}

// DescToFifo records the copy of a descriptor's frame into an
// engine-side slot (Type-I kernel copy, PSIOE user copy): the trace
// moves from descriptor to slot ownership and gains a copy stamp.
//
//wirecap:hotpath
func (r *Recorder) DescToFifo(nic, ring, desc, slot int, ts vtime.Time) {
	if r == nil {
		return
	}
	k := descKey{nic, ring, desc}
	pi, ok := r.byDesc[k]
	if !ok {
		return
	}
	delete(r.byDesc, k)
	r.stamp(pi, StageCopy, ts)
	r.byFifo[fifoKey{nic, ring, slot}] = pi
}

// FifoDeliver records delivery of an engine-slot packet to the handler
// and queues it for the matching Processed stamp.
//
//wirecap:hotpath
func (r *Recorder) FifoDeliver(nic, ring, slot int, ts vtime.Time) {
	if r == nil {
		return
	}
	k := fifoKey{nic, ring, slot}
	pi, ok := r.byFifo[k]
	if !ok {
		return
	}
	delete(r.byFifo, k)
	r.deliver(pi, nic, ring, ts)
}

// DescDeliver records zero-copy delivery straight from the descriptor
// (Type-II engines: the app reads the DMA buffer in place).
//
//wirecap:hotpath
func (r *Recorder) DescDeliver(nic, ring, desc int, ts vtime.Time) {
	if r == nil {
		return
	}
	k := descKey{nic, ring, desc}
	pi, ok := r.byDesc[k]
	if !ok {
		return
	}
	delete(r.byDesc, k)
	r.deliver(pi, nic, ring, ts)
}

//wirecap:hotpath
func (r *Recorder) deliver(pi int32, nic, queue int, ts vtime.Time) {
	r.stamp(pi, StageDeliver, ts)
	pk := procKey{nic, queue}
	r.proc[pk] = append(r.proc[pk], pi) //wirelint:allow hotpath per sampled packet on traced runs only
}

// DescClaim transfers descriptor ownership to a caller-held token
// (DPDK mbufs, whose staging queues reindex as they drain, so slot
// keys cannot name them). Returns the token: trace index + 1, 0 when
// the descriptor carries no trace. Stamps nothing.
//
//wirecap:hotpath
func (r *Recorder) DescClaim(nic, ring, desc int, ts vtime.Time) int32 {
	if r == nil {
		return 0
	}
	k := descKey{nic, ring, desc}
	pi, ok := r.byDesc[k]
	if !ok {
		return 0
	}
	delete(r.byDesc, k)
	return pi + 1
}

// IDDeliver stamps delivery for a DescClaim token.
//
//wirecap:hotpath
func (r *Recorder) IDDeliver(tid int32, ts vtime.Time) {
	if r == nil || tid == 0 {
		return
	}
	r.stamp(tid-1, StageDeliver, ts)
}

// IDProcessed stamps handler completion for a DescClaim token.
//
//wirecap:hotpath
func (r *Recorder) IDProcessed(tid int32, ts vtime.Time) {
	if r == nil || tid == 0 {
		return
	}
	r.stamp(tid-1, StageProcessed, ts)
}

// Processed stamps handler completion for the oldest delivered-but-
// unprocessed packet on (nic, queue). With one handler thread per
// queue (the configuration every CI scenario runs) delivery order is
// completion order, so the FIFO match is exact; with more threads it
// is an order approximation over the same set of packets.
//
//wirecap:hotpath
func (r *Recorder) Processed(nic, queue int, ts vtime.Time) {
	if r == nil {
		return
	}
	pk := procKey{nic, queue}
	q := r.proc[pk]
	if len(q) == 0 {
		return
	}
	pi := q[0]
	r.proc[pk] = q[1:]
	r.stamp(pi, StageProcessed, ts)
}

// ---- WireCAP chunk hooks ------------------------------------------
//
// Chunk identity: callers fold a mem.ChunkID into
// uint64(ring)<<32 | uint64(chunk) and pass the NIC separately, so obs
// needs no dependency on internal/mem.

// ChunkID folds a (ring, chunk) pair into the recorder's chunk key.
func ChunkID(ring, chunk int) uint64 {
	return uint64(uint32(ring))<<32 | uint64(uint32(chunk))
}

// DescToCell binds a descriptor's packet to a chunk cell (WireCAP's
// onRx: the descriptor's buffer IS the cell, so this is the
// "descriptor ready / consumed" transition, not a copy).
//
//wirecap:hotpath
func (r *Recorder) DescToCell(nic, ring, desc int, chunk uint64, cell int, ts vtime.Time) {
	if r == nil {
		return
	}
	k := descKey{nic, ring, desc}
	pi, ok := r.byDesc[k]
	if !ok {
		return
	}
	delete(r.byDesc, k)
	r.stamp(pi, StageDescReady, ts)
	r.byCell[cellKey{nic, chunk, cell}] = pi
	ck := chunkKey{nic, chunk}
	r.cells[ck] = append(r.cells[ck], cellEntry{cell: cell, pkt: pi}) //wirelint:allow hotpath per sampled packet on traced runs only
}

// CellMove records flush compaction: the packet in (fromChunk,
// fromCell) is copied into (toChunk, toCell) and gains a copy stamp.
//
//wirecap:hotpath
func (r *Recorder) CellMove(nic int, fromChunk uint64, fromCell int, toChunk uint64, toCell int, ts vtime.Time) {
	if r == nil {
		return
	}
	fk := cellKey{nic, fromChunk, fromCell}
	pi, ok := r.byCell[fk]
	if !ok {
		return
	}
	delete(r.byCell, fk)
	fck := chunkKey{nic, fromChunk}
	ents := r.cells[fck]
	for i := range ents {
		if ents[i].cell == fromCell {
			ents[i] = ents[len(ents)-1]
			r.cells[fck] = ents[:len(ents)-1]
			break
		}
	}
	if len(r.cells[fck]) == 0 {
		delete(r.cells, fck)
	}
	r.stamp(pi, StageCopy, ts)
	r.byCell[cellKey{nic, toChunk, toCell}] = pi
	tck := chunkKey{nic, toChunk}
	r.cells[tck] = append(r.cells[tck], cellEntry{cell: toCell, pkt: pi}) //wirelint:allow hotpath per sampled packet on traced runs only
}

// ChunkStage stamps a stage (typically StageChunkHandoff) on every
// undelivered packet still bound to the chunk.
//
//wirecap:hotpath
func (r *Recorder) ChunkStage(nic int, chunk uint64, s Stage, ts vtime.Time) {
	if r == nil {
		return
	}
	ents := r.cells[chunkKey{nic, chunk}]
	for i := range ents {
		if !ents[i].delivered {
			r.stamp(ents[i].pkt, s, ts)
		}
	}
}

// CellDeliver records delivery of one chunk cell to a handler thread
// on (procNIC, procQueue) and queues it for its Processed stamp.
//
//wirecap:hotpath
func (r *Recorder) CellDeliver(nic int, chunk uint64, cell int, procNIC, procQueue int, ts vtime.Time) {
	if r == nil {
		return
	}
	ck := chunkKey{nic, chunk}
	ents := r.cells[ck]
	for i := range ents {
		if ents[i].cell == cell {
			ents[i].delivered = true
			r.deliver(ents[i].pkt, procNIC, procQueue, ts)
			return
		}
	}
}

// ChunkDrop drops every undelivered packet still bound to the chunk
// (reclamation, quarantine backlog) and writes one ledger record
// covering count packets. count may exceed the traced cells — the
// ledger counts all packets, traces only sampled ones.
//
//wirecap:hotpath
func (r *Recorder) ChunkDrop(cause DropCause, nic, queue int, chunk uint64, count uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	ck := chunkKey{nic, chunk}
	ents := r.cells[ck]
	kept := ents[:0]
	var pkt int64 = -1
	for i := range ents {
		e := ents[i]
		if e.delivered {
			kept = append(kept, e) //wirelint:allow hotpath compaction reuses the backing array via kept[:0]
			continue
		}
		if pkt == -1 {
			pkt = int64(r.pkts[e.pkt].ID)
		}
		r.finish(e.pkt, cause, ts)
		delete(r.byCell, cellKey{nic, chunk, e.cell})
	}
	if len(kept) == 0 {
		delete(r.cells, ck)
	} else {
		r.cells[ck] = kept
	}
	if count > 0 {
		r.ledger(cause, nic, queue, pkt, count, ts)
	}
}

// ChunkRecycle stamps recycle on every packet still bound to the chunk
// and forgets the chunk (end of those packets' traces).
//
//wirecap:hotpath
func (r *Recorder) ChunkRecycle(nic int, chunk uint64, ts vtime.Time) {
	if r == nil {
		return
	}
	ck := chunkKey{nic, chunk}
	ents := r.cells[ck]
	for i := range ents {
		r.stamp(ents[i].pkt, StageRecycle, ts)
		delete(r.byCell, cellKey{nic, chunk, ents[i].cell})
	}
	delete(r.cells, ck)
}

// AbandonQueue finalizes (with a drop stamp, but NO ledger entry —
// the metrics counters do not count these either) every trace still
// bound to a descriptor of (nic, ring). Quarantine invalidates the
// ring wholesale; packets DMA'd but never consumed simply cease to
// exist. Map iteration order is irrelevant: each trace is finalized
// independently and the export sorts by packet id.
func (r *Recorder) AbandonQueue(cause DropCause, nic, ring int, ts vtime.Time) {
	if r == nil {
		return
	}
	for k, pi := range r.byDesc {
		if k.nic != nic || k.ring != ring {
			continue
		}
		r.finish(pi, cause, ts)
		delete(r.byDesc, k)
	}
}

// ---- fault, action, and profiler hooks ----------------------------

// FaultOpen opens a fault window (queue == -1 for NIC-scoped faults)
// and returns its id.
func (r *Recorder) FaultOpen(kind string, nic, queue int, ts vtime.Time) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.windows))
	r.windows = append(r.windows, FaultWindow{
		ID: id, Kind: kind, NIC: nic, Queue: queue, Open: ts, Close: -1,
	})
	return id
}

// FaultClose closes the oldest open window matching (kind, nic, queue).
func (r *Recorder) FaultClose(kind string, nic, queue int, ts vtime.Time) {
	if r == nil {
		return
	}
	for i := range r.windows {
		w := &r.windows[i]
		if w.Close < 0 && w.Kind == kind && w.NIC == nic && w.Queue == queue {
			w.Close = ts
			return
		}
	}
}

// Action records an annotated recovery/pool event. kind must be a
// constant string at the call site (no fmt on hot paths).
//
//wirecap:hotpath
func (r *Recorder) Action(kind string, nic, queue int, arg int64, ts vtime.Time) {
	if r == nil {
		return
	}
	r.actions = append(r.actions, ActionRecord{At: ts, Kind: kind, NIC: nic, Queue: queue, Arg: arg}) //wirelint:allow hotpath action journal grows amortized; recorder is opt-in per run
}

// StageCost charges d virtual nanoseconds to the (engine, queue,
// stage) profiler bucket. Call it where the simulator charges the
// matching virtual cost; engine and stage must be constant strings.
//
//wirecap:hotpath
func (r *Recorder) StageCost(engine string, queue int, stage string, d vtime.Time) {
	if r == nil {
		return
	}
	k := profKey{engine, queue, stage}
	e := r.prof[k]
	if e == nil {
		e = &profEntry{} //wirelint:allow hotpath one entry per (engine, queue, stage); reused thereafter
		r.prof[k] = e
	}
	e.ns += d
	e.count++
}
