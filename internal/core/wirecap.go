// Package core implements WireCAP, the paper's packet capture engine: the
// ring-buffer-pool mechanism for lossless zero-copy capture under
// short-term bursts (§3.2.1), the buddy-group-based offloading mechanism
// for long-term load imbalance (§3.2.2), capture threads with work-queue
// pairs, the partial-chunk timeout flush, and zero-copy forwarding through
// transmit rings.
package core

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/bpf"
	"repro/internal/engines"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// chunkTID folds a chunk's identity into the flight recorder's chunk key.
func chunkTID(c *mem.Chunk) uint64 {
	id := c.ID()
	return obs.ChunkID(id.Ring, id.Chunk)
}

// Mode selects WireCAP's operating mode.
type Mode int

// Operating modes (paper §3.2.2a).
const (
	// Basic handles each receive queue independently: the ring buffer
	// pool absorbs short-term bursts, but long-term overload eventually
	// exhausts it.
	Basic Mode = iota
	// Advanced adds buddy-group-based offloading: a busy queue's capture
	// thread places chunks on an idle buddy's capture queue.
	Advanced
)

func (m Mode) String() string {
	if m == Advanced {
		return "advanced"
	}
	return "basic"
}

// OffloadPolicy selects the offload target within a buddy group; the
// paper uses the least-loaded queue, the alternatives exist for the
// ablation study.
type OffloadPolicy int

// Offload target policies.
const (
	// OffloadShortest picks the buddy with the shortest capture queue.
	OffloadShortest OffloadPolicy = iota
	// OffloadRoundRobin rotates through the buddies.
	OffloadRoundRobin
	// OffloadRandom picks a buddy uniformly at random.
	OffloadRandom
)

// Config parameterizes the engine. The paper's naming convention
// WireCAP-B-(M, R) and WireCAP-A-(M, R, T) maps onto M, R, Mode, and
// ThresholdPct.
type Config struct {
	// M is the descriptor segment size: cells per packet buffer chunk.
	M int
	// R is the ring buffer pool size in chunks; buffering capacity per
	// queue is R*M packets. R must exceed RingSize/M so the ring can be
	// fully armed with chunks to spare (§3.2.1).
	R int
	// Mode is Basic or Advanced.
	Mode Mode
	// ThresholdPct is T: offloading starts when a capture queue holds
	// more than ThresholdPct% of R chunks. Only meaningful in Advanced
	// mode. Default 60.
	ThresholdPct int
	// Policy picks the offload target. Default OffloadShortest.
	Policy OffloadPolicy
	// BuddyGroups partitions queue indices into buddy groups; offloading
	// never crosses groups (one group per application, §3.2.1). nil means
	// all queues form one group.
	BuddyGroups [][]int
	// FlushTimeout bounds how long a partially filled chunk may hold
	// packets before they are copied out and delivered (the capture
	// operation's timeout, §3.2.1). Zero disables flushing.
	FlushTimeout vtime.Time
	// SharedCaptureCore runs all capture threads on one core instead of
	// one core each ("the system can dedicate one or several cores to run
	// all capture threads").
	SharedCaptureCore bool
	// ThreadsPerQueue runs several application threads against each
	// queue's work-queue pair — the paper's §5e alternative paradigm
	// ("multiple threads of a packet-processing application can access a
	// single NIC receive queue"). Default 1. The synchronization overhead
	// the paper notes is charged per fetch.
	ThreadsPerQueue int
	// Costs is the operation cost model.
	Costs engines.CostModel
	// Seed drives the random offload policy.
	Seed uint64
	// Faults is the run's fault injector; nil falls back to the NIC's
	// (set via nic.Config.Faults). With an injector present the engine
	// also activates its recovery machinery unless DisableRecovery.
	Faults *faults.Injector
	// WatchdogInterval is the recovery watchdog's tick period. Default
	// DefaultWatchdogInterval.
	WatchdogInterval vtime.Time
	// DisableRecovery takes the faults but not the cure: injection
	// points stay active while the watchdog, retries, quarantine, and
	// integrity validation are off — the ablation configuration that
	// shows what the recovery machinery buys.
	DisableRecovery bool
	// ChunkFilter, when non-nil, is the batch filter the consumer path
	// applies once per handed chunk (bpf.FlatProgram.FilterChunk) as the
	// chunk is picked up for draining: rejected packets are never
	// delivered and count in ChunkFiltered, not in any drop class —
	// filtering is policy, not loss. nil (the default) delivers
	// everything, leaving every pre-existing baseline digest unchanged.
	// The program is shared by all of the engine's queues, which is safe
	// because one simulation runs on one goroutine; concurrent
	// simulations need their own programs.
	ChunkFilter *bpf.FlatProgram
}

// DefaultFlushTimeout keeps delivery latency bounded at a fraction of the
// 10 ms profiling bin.
const DefaultFlushTimeout = 2 * vtime.Millisecond

// QueueStats extends the common engine stats with WireCAP-specific
// counters.
type QueueStats struct {
	engines.QueueStats
	ChunksCaptured  uint64 // full-chunk zero-copy captures
	ChunksOffloaded uint64 // chunks placed on a buddy's capture queue
	ChunksFlushed   uint64 // partial chunks delivered by timeout copy
	FlushedPackets  uint64 // packets delivered through flush copies
	PoolExhausted   uint64 // arm attempts that found no free chunk
	ChunkFiltered   uint64 // packets rejected by the batch chunk filter

	// Recovery counters; all zero on well-behaved runs.
	Quarantines      uint64 // times this queue was declared dead
	HandlerFailovers uint64 // backlog hand-offs to a live buddy
	ChunksReclaimed  uint64 // chunks force-reclaimed by recovery
	AllocFaults      uint64 // transient injected allocation failures
	AllocRetries     uint64 // backoff retries scheduled for those
	ReSteeredEntries uint64 // steering entries rewritten at quarantine
}

// Engine is the WireCAP capture engine bound to one NIC.
type Engine struct {
	sched *vtime.Scheduler
	n     *nic.NIC
	cfg   Config
	rnd   *vtime.Rand

	queues  []*wqueue
	rrState int // round-robin offload pointer
	closed  bool

	// Fault injection and recovery. recovery is true when an injector is
	// present and recovery was not disabled; wd is the engine-wide
	// watchdog timer, stopped whenever every queue is idle and re-armed
	// by fault activations and fresh work (see armWatchdog).
	inj      *faults.Injector
	recovery bool
	wd       *vtime.Timer

	// Flight recorder (rides the NIC like the fault injector); traceName
	// caches Name() so hook sites pass a prebuilt constant string.
	trace     *obs.Recorder
	traceName string
	nicID     int

	sharedCapture *vtime.Server

	// handedFree recycles handedChunk headers (and their release
	// closures die with them), so steady-state capture allocates only
	// one small header per chunk hand-off at most.
	handedFree []*handedChunk
}

// cellRef locates the pool cell a descriptor is armed with.
type cellRef struct {
	chunk *mem.Chunk
	cell  int
}

// handedChunk is a captured chunk as seen by the user-space library:
// metadata plus the (mapped) chunk reference.
type handedChunk struct {
	meta  mem.Meta
	chunk *mem.Chunk
	next  int // packets dispatched so far, relative to Base
	// outstanding counts dispatched packets whose done callback has not
	// run yet (e.g. sitting in a TX ring); the chunk recycles only when
	// the whole chunk is dispatched and outstanding returns to zero.
	outstanding int
	dispatched  bool
	owner       *wqueue    // queue whose pool owns the chunk
	recycleAt   vtime.Time // when the recycle ioctl was enqueued
	// releaseFn is the per-packet done callback, built once by the
	// consuming queue when it starts draining the chunk and shared by
	// every packet in it (each packet's done runs exactly once).
	releaseFn func()
}

type wqueue struct {
	e     *Engine
	queue int
	ring  *nic.RxRing
	pool  *mem.Pool

	// Kernel-side arming state.
	armChunk *mem.Chunk
	armCell  int
	cells    []cellRef // per-descriptor cell assignment
	starved  []int     // descriptor indices waiting for cells, in use order

	// Frontier flush timer, reused for the queue's lifetime.
	// flushRetries counts consecutive timeouts that found no free chunk
	// to copy into; past maxFlushRetries the pending window is reclaimed
	// instead of retried (with a pool no larger than the ring, a free
	// chunk may never appear and unbounded retry would livelock).
	flushTimer   *vtime.Timer
	flushTarget  *mem.Chunk
	flushRetries int

	// Capture thread. capPending holds chunks whose capture ioctl has
	// been charged but not completed (FIFO, popped by captureFn);
	// capPendingAt carries each entry's enqueue time for the latency
	// histogram; captureFn/recycleFn are bound once so chunk ops
	// allocate nothing.
	capSv        *vtime.Server
	capPending   []*mem.Chunk
	capPendingAt []vtime.Time
	captureFn    func()
	recycleFn    func()

	// User-space work-queue pair.
	captureQ []*handedChunk
	recycleQ []*handedChunk
	cur      *handedChunk

	// Batch chunk filter (Config.ChunkFilter). fltFrames and fltAccept
	// are preallocated scratch reused for every chunk; curAccept is the
	// bitmap covering q.cur (one chunk drains at a time, so one buffer
	// serves the queue's lifetime).
	flt       *bpf.FlatProgram
	fltFrames [][]byte
	curAccept []uint64

	threads []*engines.Thread
	buddies []*wqueue

	stats QueueStats

	// Recovery state. dead marks a quarantined queue; rerouted marks a
	// queue whose consumer wedged and whose chunks now flow to rerouteTo
	// (sticky for the run — resuming self-delivery while the buddy still
	// holds older chunks would reorder flows). retryTimer drives the
	// bounded backoff for transient allocation faults; the wd* fields
	// are the watchdog's last-tick snapshots.
	dead         bool
	rerouted     bool
	rerouteTo    *wqueue
	retryTimer   *vtime.Timer
	retryAttempt int
	wdReceived   uint64
	wdFaultDrops uint64
	wdDelivered  uint64
	stallTicks   int
	wedgeTicks   int

	// Latency histograms: enqueue-to-completion of the chunk-granular
	// operations, in virtual nanoseconds. Record is allocation-free.
	capLat   *metrics.Histogram
	recLat   *metrics.Histogram
	flushLat *metrics.Histogram
}

// New builds a WireCAP engine on every receive queue of n, delivering to
// h. It maps each queue's pool (Open) and fully arms each ring.
func New(sched *vtime.Scheduler, n *nic.NIC, cfg Config, h engines.Handler) (*Engine, error) {
	if cfg.M <= 0 || cfg.R <= 0 {
		return nil, fmt.Errorf("core: invalid geometry M=%d R=%d", cfg.M, cfg.R)
	}
	if cfg.R*cfg.M < n.RingSize() {
		return nil, fmt.Errorf("core: pool capacity R*M=%d cannot arm a %d-descriptor ring",
			cfg.R*cfg.M, n.RingSize())
	}
	if cfg.ThresholdPct == 0 {
		cfg.ThresholdPct = 60
	}
	if cfg.ThresholdPct < 1 || cfg.ThresholdPct > 100 {
		return nil, fmt.Errorf("core: threshold %d%% out of range", cfg.ThresholdPct)
	}
	if cfg.FlushTimeout == 0 {
		cfg.FlushTimeout = DefaultFlushTimeout
	}
	if cfg.ThreadsPerQueue <= 0 {
		cfg.ThreadsPerQueue = 1
	}
	if cfg.Faults == nil {
		cfg.Faults = n.Faults()
	}
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = DefaultWatchdogInterval
	}
	e := &Engine{sched: sched, n: n, cfg: cfg, rnd: vtime.NewRand(cfg.Seed + 3)}
	e.inj = cfg.Faults
	e.recovery = e.inj != nil && !cfg.DisableRecovery
	e.trace = n.Trace()
	e.traceName = e.Name()
	e.nicID = n.ID()
	if cfg.SharedCaptureCore {
		e.sharedCapture = vtime.NewServer(sched, nil)
	}
	for qi := 0; qi < n.RxQueues(); qi++ {
		q := &wqueue{e: e, queue: qi, ring: n.Rx(qi)}
		q.pool = mem.NewPool(n.ID(), qi, cfg.M, cfg.R)
		if err := q.pool.Map(); err != nil {
			return nil, err
		}
		q.pool.SetTrace(e.trace, sched.Now)
		if cfg.SharedCaptureCore {
			q.capSv = e.sharedCapture
		} else {
			q.capSv = vtime.NewServer(sched, nil)
		}
		q.flushTimer = sched.NewTimer(q.flushTimeout)
		q.captureFn = q.captureDone
		q.recycleFn = q.recycleDone
		if cfg.ChunkFilter != nil {
			q.flt = cfg.ChunkFilter
			q.fltFrames = make([][]byte, cfg.M)
			q.curAccept = make([]uint64, (cfg.M+63)/64)
		}
		for i := 0; i < cfg.ThreadsPerQueue; i++ {
			th := engines.NewThread(sched, nil, qi, h, q.fetch)
			th.SetFaults(e.inj, n.ID())
			th.SetTrace(e.trace, e.traceName, n.ID())
			q.threads = append(q.threads, th)
		}
		if e.inj != nil {
			// Transient allocation faults apply with or without recovery;
			// only the retry/backoff response below is recovery-gated.
			qi := qi
			q.pool.SetAllocFault(func() bool { return e.inj.AllocFails(n.ID(), qi) })
		}
		if e.recovery {
			q.retryTimer = sched.NewTimer(q.allocRetryTick)
		}
		e.queues = append(e.queues, q)
	}
	if e.recovery {
		e.wd = sched.Every(cfg.WatchdogInterval, e.watchdogTick)
		e.inj.OnActivate(e.armWatchdog)
	}
	e.register(n)
	// Buddy groups.
	groups := cfg.BuddyGroups
	if groups == nil {
		all := make([]int, n.RxQueues())
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
	}
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, qi := range g {
			if qi < 0 || qi >= len(e.queues) {
				return nil, fmt.Errorf("core: buddy group names queue %d of %d", qi, len(e.queues))
			}
			if seen[qi] {
				return nil, fmt.Errorf("core: queue %d in two buddy groups", qi)
			}
			seen[qi] = true
		}
		for _, qi := range g {
			for _, b := range g {
				e.queues[qi].buddies = append(e.queues[qi].buddies, e.queues[b])
			}
		}
	}
	// Arm every ring and register DMA callbacks; charge the engine's
	// extra per-packet bus footprint (chunk metadata I/O).
	for _, q := range e.queues {
		for i := 0; i < q.ring.Size(); i++ {
			if !q.arm(i) {
				return nil, fmt.Errorf("core: queue %d: pool exhausted arming descriptor %d", q.queue, i)
			}
		}
		q.ring.SetBusOverhead(wirecapBusOverhead)
		q := q
		q.ring.OnRx(func(i int) { q.onRx(i) })
	}
	e.applyPagePenalty()
	return e, nil
}

// wirecapBusOverhead is the extra bus traffic per packet for WireCAP's
// ring-buffer-pool bookkeeping (chunk metadata, extra descriptor I/O),
// versus the baseline already included in the bus's per-transfer overhead.
// It is what makes WireCAP lose to DNA at queues/NIC=1 in Figure 14 when
// the bus saturates.
const wirecapBusOverhead = 10

// pagePenaltyPerGB models TLB pressure from very large pool footprints:
// bytes of extra memory traffic per packet for each GB of pool memory
// beyond 1 GB (paper §4: "a big-memory application typically pays a high
// cost for page-based virtual memory").
const pagePenaltyPerGB = 24

func (e *Engine) applyPagePenalty() {
	total := 0
	for _, q := range e.queues {
		total += q.pool.MemoryBytes()
	}
	const gb = 1 << 30
	if total <= gb {
		return
	}
	penalty := (total - gb) * pagePenaltyPerGB / gb
	for _, q := range e.queues {
		q.ring.SetBusOverhead(wirecapBusOverhead + penalty)
	}
}

// register exports the engine's observability series on the NIC's
// registry: chunk-operation counters sampled from the existing stats
// (free on the hot path), pool/queue occupancy gauges, and the
// capture/recycle/flush latency histograms the work-queue pairs record
// into directly.
func (e *Engine) register(n *nic.NIC) {
	reg := n.Metrics()
	engL := metrics.L("engine", e.Name())
	nicL := metrics.L("nic", strconv.Itoa(n.ID()))
	for _, q := range e.queues {
		q := q
		ls := []metrics.Label{engL, nicL, metrics.L("queue", strconv.Itoa(q.queue))}
		reg.CounterFunc("wirecap_chunks_captured_total", func() uint64 { return q.stats.ChunksCaptured }, ls...)
		reg.CounterFunc("wirecap_chunks_offloaded_total", func() uint64 { return q.stats.ChunksOffloaded }, ls...)
		reg.CounterFunc("wirecap_chunks_flushed_total", func() uint64 { return q.stats.ChunksFlushed }, ls...)
		reg.CounterFunc("wirecap_flushed_packets_total", func() uint64 { return q.stats.FlushedPackets }, ls...)
		reg.CounterFunc("wirecap_pool_exhausted_total", func() uint64 { return q.stats.PoolExhausted }, ls...)
		reg.CounterFunc("wirecap_delivered_total", func() uint64 { return q.stats.Delivered }, ls...)
		reg.GaugeFunc("wirecap_pool_free_chunks", func() int64 { return int64(q.pool.FreeCount()) }, ls...)
		reg.GaugeFunc("wirecap_capture_queue_len", func() int64 { return int64(len(q.captureQ)) }, ls...)
		reg.GaugeFunc("wirecap_recycle_queue_len", func() int64 { return int64(len(q.recycleQ)) }, ls...)
		q.capLat = reg.Histogram("wirecap_capture_latency_ns", ls...)
		q.recLat = reg.Histogram("wirecap_recycle_latency_ns", ls...)
		q.flushLat = reg.Histogram("wirecap_flush_latency_ns", ls...)
		if q.flt != nil {
			// Filter series exist only when a chunk filter is installed,
			// so unfiltered snapshots (and digests) are unchanged.
			reg.CounterFunc("wirecap_chunk_filtered_total", func() uint64 { return q.stats.ChunkFiltered }, ls...)
		}
		if e.inj != nil {
			// Fault/recovery series exist only on chaos runs so
			// steady-state snapshots (and digests) are unchanged.
			reg.CounterFunc("wirecap_corrupt_drops_total", func() uint64 { return q.stats.CorruptDrops }, ls...)
			reg.CounterFunc("wirecap_reclaim_drops_total", func() uint64 { return q.stats.ReclaimDrops }, ls...)
			reg.CounterFunc("wirecap_quarantines_total", func() uint64 { return q.stats.Quarantines }, ls...)
			reg.CounterFunc("wirecap_handler_failovers_total", func() uint64 { return q.stats.HandlerFailovers }, ls...)
			reg.CounterFunc("wirecap_chunks_reclaimed_total", func() uint64 { return q.stats.ChunksReclaimed }, ls...)
			reg.CounterFunc("wirecap_alloc_faults_total", func() uint64 { return q.stats.AllocFaults }, ls...)
			reg.CounterFunc("wirecap_alloc_retries_total", func() uint64 { return q.stats.AllocRetries }, ls...)
			reg.CounterFunc("wirecap_resteered_entries_total", func() uint64 { return q.stats.ReSteeredEntries }, ls...)
		}
	}
}

// Name implements engines.Engine; it follows the paper's naming scheme.
func (e *Engine) Name() string {
	if e.cfg.Mode == Advanced {
		return fmt.Sprintf("WireCAP-A-(%d,%d,%d%%)", e.cfg.M, e.cfg.R, e.cfg.ThresholdPct)
	}
	return fmt.Sprintf("WireCAP-B-(%d,%d)", e.cfg.M, e.cfg.R)
}

// arm readies descriptor i with the next pool cell. It returns false, and
// leaves the descriptor empty, when no cell is available (pool exhausted).
//
//wirecap:hotpath
func (q *wqueue) arm(i int) bool {
	if q.armChunk == nil || q.armCell == q.armChunk.Cells() {
		c, err := q.pool.AllocFree()
		if err != nil {
			q.noteAllocFailure(err)
			q.ring.Invalidate(i)
			q.starved = append(q.starved, i) //wirelint:allow hotpath starved list is bounded by ring size; backing array is reused
			return false
		}
		q.armChunk = c
		q.armCell = 0
	}
	cell := q.armCell
	q.armCell++
	q.ring.Refill(i, q.armChunk.Cell(cell))
	q.cellOf(i).chunk = q.armChunk
	q.cellOf(i).cell = cell
	return true
}

// cellRefs is allocated lazily per queue.
//
//wirecap:hotpath
func (q *wqueue) cellOf(i int) *cellRef {
	if q.cells == nil {
		q.cells = make([]cellRef, q.ring.Size()) //wirelint:allow hotpath one-time lazy allocation per queue
	}
	return &q.cells[i]
}

// onRx runs after DMA fills descriptor i.
//
//wirecap:hotpath
func (q *wqueue) onRx(i int) {
	ref := *q.cellOf(i)
	d := q.ring.Desc(i)
	if d.Err && q.e.recovery {
		// Frame-integrity validation: the descriptor's error bit says the
		// DMA write damaged the frame (bad checksum). The cell was already
		// consumed by the DMA write, so it is tombstoned — the chunk's
		// strict in-order fill invariant holds, but the delivery and flush
		// paths skip the cell. Without recovery the bit is ignored and the
		// damaged frame is delivered, exactly like the baseline engines.
		q.stats.CorruptDrops++
		ref.chunk.MarkBad(ref.cell, d.TS)
		q.e.trace.DescDrop(obs.DropCorrupt, q.e.nicID, q.queue, i, q.e.sched.Now())
	} else {
		ref.chunk.SetPacket(ref.cell, d.Len, d.TS)
		q.e.trace.DescToCell(q.e.nicID, q.queue, i, chunkTID(ref.chunk), ref.cell, q.e.sched.Now())
	}
	if ref.chunk.Full() {
		if q.flushTarget == ref.chunk {
			q.flushTimer.Stop()
			q.flushTarget = nil
		}
		q.scheduleCapture(ref.chunk)
	} else if q.e.cfg.FlushTimeout > 0 && ref.chunk.PendingCount() == 1 {
		// First pending packet in the frontier chunk: bound its delay. A
		// fresh pending window gets a fresh retry budget.
		q.flushRetries = 0
		q.armFlush(ref.chunk)
	}
	// Re-arm the descriptor immediately: the packet's bytes live in the
	// pool cell, not the descriptor.
	if len(q.starved) > 0 {
		// Keep strict use-order arming: this descriptor queues behind the
		// ones already starving.
		q.starved = append(q.starved, i) //wirelint:allow hotpath starved list is bounded by ring size; backing array is reused
		q.ring.Invalidate(i)
		q.rearmStarved()
		return
	}
	q.arm(i)
}

func (q *wqueue) rearmStarved() {
	for len(q.starved) > 0 {
		i := q.starved[0]
		// arm re-appends to starved on failure; avoid duplicating.
		if q.armChunk == nil || q.armCell == q.armChunk.Cells() {
			c, err := q.pool.AllocFree()
			if err != nil {
				q.noteAllocFailure(err)
				return
			}
			q.armChunk = c
			q.armCell = 0
		}
		q.starved = q.starved[1:]
		cell := q.armCell
		q.armCell++
		q.ring.Refill(i, q.armChunk.Cell(cell))
		q.cellOf(i).chunk = q.armChunk
		q.cellOf(i).cell = cell
	}
	// Fully re-armed: the next transient-fault episode gets a fresh
	// backoff ladder.
	q.retryAttempt = 0
}

// noteAllocFailure classifies an AllocFree error: genuine pool
// exhaustion is the paper's §3.2.1 capture-drop path, while an injected
// transient failure additionally schedules a bounded retry with
// exponential backoff (the chunk is there; the allocator just failed).
func (q *wqueue) noteAllocFailure(err error) {
	if errors.Is(err, mem.ErrTransientAlloc) {
		q.stats.AllocFaults++
		q.scheduleAllocRetry()
		return
	}
	q.stats.PoolExhausted++
}

// armFlush schedules the partial-chunk timeout for the frontier chunk by
// re-arming the queue's persistent timer.
func (q *wqueue) armFlush(c *mem.Chunk) {
	q.flushTarget = c
	q.flushTimer.Schedule(q.e.cfg.FlushTimeout)
}

// flushTimeout is the flush timer's bound callback.
func (q *wqueue) flushTimeout() {
	c := q.flushTarget
	q.flushTarget = nil
	q.flush(c)
}

// scheduleCapture runs the chunk-granular capture ioctl on the capture
// thread: the full chunk moves to a user-space capture queue by metadata
// only. The chunk joins capPending; captureDone pops in FIFO order, which
// matches the server's FIFO completion order.
//
//wirecap:hotpath
func (q *wqueue) scheduleCapture(c *mem.Chunk) {
	q.capPending = append(q.capPending, c)                   //wirelint:allow hotpath pending list reaches steady-state capacity after warm-up
	q.capPendingAt = append(q.capPendingAt, q.e.sched.Now()) //wirelint:allow hotpath pending list reaches steady-state capacity after warm-up
	q.e.trace.StageCost(q.e.traceName, q.queue, "capture_ioctl", q.e.cfg.Costs.ChunkOp)
	q.capSv.ChargeAndCall(q.e.cfg.Costs.ChunkOp, q.captureFn)
}

// captureDone commits the capture ioctl charged by scheduleCapture.
//
//wirecap:hotpath
func (q *wqueue) captureDone() {
	c := q.capPending[0]
	copy(q.capPending, q.capPending[1:])
	q.capPending = q.capPending[:len(q.capPending)-1]
	at := q.capPendingAt[0]
	copy(q.capPendingAt, q.capPendingAt[1:])
	q.capPendingAt = q.capPendingAt[:len(q.capPendingAt)-1]
	q.capLat.Record(int64(q.e.sched.Now() - at))
	if q.dead {
		// The queue was quarantined while this chunk waited for its
		// capture ioctl (the quarantine sweep skipped it for exactly this
		// moment). Its packets die here as reclaim drops.
		q.stats.ReclaimDrops += uint64(c.GoodPending())
		q.stats.ChunksReclaimed++
		q.e.trace.ChunkDrop(obs.DropReclaim, q.e.nicID, q.queue, chunkTID(c), uint64(c.GoodPending()), q.e.sched.Now())
		if err := q.pool.Reclaim(c); err != nil {
			panic(fmt.Sprintf("core: reclaim of quarantined chunk failed: %v", err))
		}
		return
	}
	meta, err := q.pool.Capture(c)
	if err != nil {
		panic(fmt.Sprintf("core: capture of full chunk failed: %v", err))
	}
	q.stats.ChunksCaptured++
	q.e.trace.ChunkStage(q.e.nicID, chunkTID(c), obs.StageChunkHandoff, q.e.sched.Now())
	h := q.e.newHanded(meta, c, q)
	target := q.chooseTarget()
	if target != q {
		q.stats.ChunksOffloaded++
	}
	target.captureQ = append(target.captureQ, h) //wirelint:allow hotpath capture queue reaches steady-state capacity after warm-up
	target.kick()
}

// newHanded takes a handedChunk header from the free list, or allocates.
//
//wirecap:hotpath
func (e *Engine) newHanded(meta mem.Meta, c *mem.Chunk, owner *wqueue) *handedChunk {
	if n := len(e.handedFree); n > 0 {
		h := e.handedFree[n-1]
		e.handedFree = e.handedFree[:n-1]
		h.meta, h.chunk, h.owner = meta, c, owner
		return h
	}
	return &handedChunk{meta: meta, chunk: c, owner: owner} //wirelint:allow hotpath pool miss only; headers recycle through handedFree
}

// freeHanded zeroes a recycled header (dropping its release closure) and
// returns it to the free list.
//
//wirecap:hotpath
func (e *Engine) freeHanded(h *handedChunk) {
	*h = handedChunk{}
	e.handedFree = append(e.handedFree, h) //wirelint:allow hotpath header free list reaches steady-state capacity
}

// kick wakes every application thread serving this queue's work-queue
// pair, and makes sure the watchdog is ticking while there is work it
// might have to rescue (new chunks can land on a crashed queue while
// the watchdog sleeps).
//
//wirecap:hotpath
func (q *wqueue) kick() {
	q.e.armWatchdog()
	for _, th := range q.threads {
		th.Kick()
	}
}

// chooseTarget implements the advanced-mode offloading decision (§3.2.2a
// steps 1.b-1.d), extended by recovery: a rerouted queue sends every
// chunk to its sticky failover target, and offloading never picks a
// quarantined or rerouted buddy.
func (q *wqueue) chooseTarget() *wqueue {
	if q.rerouted && q.rerouteTo != nil && !q.rerouteTo.dead {
		return q.rerouteTo
	}
	if q.e.cfg.Mode != Advanced || len(q.buddies) <= 1 {
		return q
	}
	threshold := q.e.cfg.ThresholdPct * q.pool.R() / 100
	if len(q.captureQ) <= threshold {
		return q
	}
	switch q.e.cfg.Policy {
	case OffloadRoundRobin:
		q.e.rrState++
		if b := q.buddies[q.e.rrState%len(q.buddies)]; !b.dead && !b.rerouted {
			return b
		}
		return q
	case OffloadRandom:
		if b := q.buddies[q.e.rnd.Intn(len(q.buddies))]; !b.dead && !b.rerouted {
			return b
		}
		return q
	default:
		best := q
		for _, b := range q.buddies {
			if b.dead || b.rerouted {
				continue
			}
			if len(b.captureQ) < len(best.captureQ) {
				best = b
			}
		}
		return best
	}
}

// flush delivers a partially filled frontier chunk by copying its pending
// packets into a free chunk (§3.2.1 capture operation step 3).
//
//wirecap:hotpath
func (q *wqueue) flush(c *mem.Chunk) {
	if c.State() != mem.StateAttached || c.PendingCount() == 0 || c.Full() {
		return
	}
	if c.GoodPending() == 0 {
		// Only corrupt tombstones pending: nothing to deliver. Drop them
		// from the pending window without spending a chunk or a copy.
		c.SetBase(c.Count())
		return
	}
	f, err := q.pool.AllocFree()
	if err != nil {
		if q.e.recovery && q.flushRetries >= maxFlushRetries {
			// The pool has had no free chunk for maxFlushRetries consecutive
			// timeouts. When pool capacity barely covers the ring every chunk
			// can stay attached forever, so retrying would never terminate —
			// emergency-reclaim the pending window instead, explicitly
			// accounted, and let the chunk keep receiving. Without recovery
			// the retry keeps the pre-fault behavior: on a healthy run the
			// pool refills as the consumer drains and a later retry succeeds.
			q.flushRetries = 0
			q.stats.ReclaimDrops += uint64(c.GoodPending())
			q.e.trace.ChunkDrop(obs.DropReclaim, q.e.nicID, q.queue, chunkTID(c), uint64(c.GoodPending()), q.e.sched.Now())
			c.SetBase(c.Count())
			return
		}
		// No free chunk to copy into; retry after another timeout so the
		// packets are not held indefinitely.
		q.flushRetries++
		q.armFlush(c)
		return
	}
	q.flushRetries = 0
	var cost vtime.Time = q.e.cfg.Costs.ChunkOp
	for i := c.Base(); i < c.Count(); i++ {
		if c.Bad(i) {
			continue
		}
		data, _ := c.Packet(i)
		cost += q.e.cfg.Costs.CopyCost(len(data))
	}
	flushStart := q.e.sched.Now()
	q.e.trace.StageCost(q.e.traceName, q.queue, "flush_copy", cost)
	q.capSv.ChargeAndCall(cost, func() { //wirelint:allow hotpath timeout-flush slow path, runs per flush interval not per packet
		// Validate again at execution time: the chunk may have filled and
		// been captured while the copy op waited.
		if c.State() != mem.StateAttached || c.GoodPending() == 0 {
			// Nothing to do; return f unused. Any pending tombstones can be
			// dropped from the window while we are here.
			if c.State() == mem.StateAttached && c.PendingCount() > 0 {
				c.SetBase(c.Count())
			}
			fm, err := q.pool.Capture(f)
			if err == nil {
				_ = q.pool.Recycle(fm)
			}
			return
		}
		k := 0
		for i := c.Base(); i < c.Count(); i++ {
			if c.Bad(i) {
				continue
			}
			data, ts := c.Packet(i)
			copy(f.Cell(k), data)
			f.SetPacket(k, len(data), ts)
			q.e.trace.CellMove(q.e.nicID, chunkTID(c), i, chunkTID(f), k, q.e.sched.Now())
			k++
		}
		c.SetBase(c.Count())
		meta, err := q.pool.Capture(f)
		if err != nil {
			panic(fmt.Sprintf("core: flush capture failed: %v", err))
		}
		q.stats.ChunksFlushed++
		q.stats.FlushedPackets += uint64(k)
		q.flushLat.Record(int64(q.e.sched.Now() - flushStart))
		q.e.trace.ChunkStage(q.e.nicID, chunkTID(f), obs.StageChunkHandoff, q.e.sched.Now())
		h := q.e.newHanded(meta, f, q)
		target := q.chooseTarget()
		if target != q {
			q.stats.ChunksOffloaded++
		}
		target.captureQ = append(target.captureQ, h) //wirelint:allow hotpath capture queue reaches steady-state capacity after warm-up
		target.kick()
	})
}

// fetch is the user-space library path the application thread pulls
// packets through: chunks come off the capture queue, packets are handed
// out zero-copy, and exhausted chunks go to the recycle queue.
//
//wirecap:hotpath
func (q *wqueue) fetch() ([]byte, vtime.Time, func(), bool) {
	for {
		if q.cur == nil {
			if len(q.captureQ) == 0 {
				return nil, 0, nil, false
			}
			q.cur = q.captureQ[0]
			copy(q.captureQ, q.captureQ[1:])
			q.captureQ = q.captureQ[:len(q.captureQ)-1]
			if q.flt != nil {
				// A chunk is picked up exactly once (cur clears only after
				// a full drain), so the whole chunk is filtered in one
				// batch call here.
				q.batchFilter(q.cur)
			}
			if h := q.cur; h.releaseFn == nil {
				// One closure serves every packet of the chunk; it dies
				// with the header when the chunk recycles.
				h.releaseFn = func() { //wirelint:allow hotpath one closure per chunk, amortized over its M packets
					h.outstanding--
					if h.dispatched && h.outstanding == 0 {
						q.enqueueRecycle(h)
					}
				}
			}
		}
		h := q.cur
		if h.next >= h.meta.PktCount {
			h.dispatched = true
			if h.outstanding == 0 {
				q.enqueueRecycle(h)
			}
			q.cur = nil
			continue
		}
		idx := h.chunk.Base() + h.next
		h.next++
		if h.chunk.Bad(idx) {
			// Corrupt-frame tombstone: already accounted as a corrupt drop
			// at receive time.
			continue
		}
		if q.flt != nil {
			rel := idx - h.chunk.Base()
			if q.curAccept[rel>>6]>>(uint(rel)&63)&1 == 0 {
				q.stats.ChunkFiltered++ //wirelint:allow conservation filtered cells are not drops; the gate checks Received == Delivered + ChunkFiltered and filtered cells never enter the delivery books
				continue
			}
		}
		h.outstanding++
		q.stats.Delivered++
		data, ts := h.chunk.Packet(idx)
		q.e.trace.CellDeliver(q.e.nicID, chunkTID(h.chunk), idx, q.e.nicID, q.queue, q.e.sched.Now())
		return data, ts, h.releaseFn, true
	}
}

// batchFilter runs the configured chunk filter over every cell of a
// just-picked-up chunk in one FilterChunk call, writing the accept
// bitmap fetch consults while draining. Tombstoned (Bad) cells pass a
// nil frame — their bitmap bits are meaningless because the drain loop
// skips tombstones before consulting the bitmap.
//
//wirecap:hotpath
func (q *wqueue) batchFilter(h *handedChunk) {
	n := h.meta.PktCount
	base := h.chunk.Base()
	frames := q.fltFrames[:n]
	for i := 0; i < n; i++ {
		if h.chunk.Bad(base + i) {
			frames[i] = nil
			continue
		}
		data, _ := h.chunk.Packet(base + i)
		frames[i] = data
	}
	q.flt.FilterChunk(frames, q.curAccept)
}

// enqueueRecycle places a fully consumed chunk on this queue's recycle
// queue and kicks the capture thread to run the recycle ioctl.
//
//wirecap:hotpath
func (q *wqueue) enqueueRecycle(h *handedChunk) {
	h.recycleAt = q.e.sched.Now()
	q.recycleQ = append(q.recycleQ, h) //wirelint:allow hotpath recycle queue reaches steady-state capacity after warm-up
	q.e.trace.StageCost(q.e.traceName, q.queue, "recycle_ioctl", q.e.cfg.Costs.ChunkOp)
	q.capSv.ChargeAndCall(q.e.cfg.Costs.ChunkOp, q.recycleFn)
}

// recycleDone commits the recycle ioctl charged by enqueueRecycle.
//
//wirecap:hotpath
func (q *wqueue) recycleDone() {
	hh := q.recycleQ[0]
	copy(q.recycleQ, q.recycleQ[1:])
	q.recycleQ = q.recycleQ[:len(q.recycleQ)-1]
	owner := hh.owner
	q.recLat.Record(int64(q.e.sched.Now() - hh.recycleAt))
	q.e.trace.ChunkRecycle(q.e.nicID, chunkTID(hh.chunk), q.e.sched.Now())
	if err := owner.pool.Recycle(hh.meta); err != nil {
		panic(fmt.Sprintf("core: recycle failed: %v", err))
	}
	q.e.freeHanded(hh)
	owner.rearmStarved()
}

// ChunkFiltered returns the total number of packets the batch chunk
// filter rejected across all queues (0 without a ChunkFilter). These
// packets were received but deliberately never delivered; conservation
// checks account them separately from the drop classes.
func (e *Engine) ChunkFiltered() uint64 {
	var n uint64
	for _, q := range e.queues {
		n += q.stats.ChunkFiltered
	}
	return n
}

// Stats implements engines.Engine.
func (e *Engine) Stats() engines.Stats {
	s := engines.Stats{Engine: e.Name()}
	for _, q := range e.queues {
		qs := q.stats.QueueStats
		rs := q.ring.Stats()
		qs.Received = rs.Received
		qs.CaptureDrops = rs.Drops()
		s.PerQueue = append(s.PerQueue, qs)
	}
	return s
}

// QueueStats returns the extended per-queue counters.
func (e *Engine) QueueStats(q int) QueueStats {
	qs := e.queues[q].stats
	rs := e.queues[q].ring.Stats()
	qs.Received = rs.Received
	qs.CaptureDrops = rs.Drops()
	return qs
}

// AppBusy returns the cumulative CPU time of queue q's application
// threads.
func (e *Engine) AppBusy(q int) vtime.Time {
	var total vtime.Time
	for _, th := range e.queues[q].threads {
		total += th.Busy()
	}
	return total
}

// CaptureBusy returns the cumulative CPU time of queue q's capture
// thread.
func (e *Engine) CaptureBusy(q int) vtime.Time { return e.queues[q].capSv.Charged() }

// Close implements the paper's Close operation (§3.2.1): it stops
// capture on every queue — cancelling pending flush timers, detaching
// every descriptor so the NIC stops receiving into the pools — and
// unmaps the ring buffer pools from the process. Packets already handed
// to the application remain valid until recycled. Close is idempotent.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.wd != nil {
		e.wd.Stop()
	}
	var firstErr error
	for _, q := range e.queues {
		q.flushTimer.Stop()
		q.flushTarget = nil
		if q.retryTimer != nil {
			q.retryTimer.Stop()
		}
		q.ring.OnRx(nil)
		for i := 0; i < q.ring.Size(); i++ {
			q.ring.Invalidate(i)
		}
		if err := q.pool.Unmap(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
