// Package mem simulates the host-memory side of packet capture: fixed-size
// packet-buffer cells, chunks of cells occupying (simulated) physically
// contiguous memory, ring buffer pools with the free/attached/captured
// chunk life cycle from the WireCAP paper (§3.2.1), and the process
// address a captured chunk's metadata carries back on recycle.
//
// "Zero-copy" in the simulation means a chunk changes hands by metadata
// only; the cell bytes stay put. The cost model in internal/core charges
// virtual time accordingly.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/vtime"
)

// CellSize is the size of one packet-buffer cell. The paper's
// implementation uses 2 KB cells (§5a).
const CellSize = 2048

// ChunkState is the life-cycle state of a packet buffer chunk.
type ChunkState int

// Chunk states (paper §3.2.1).
const (
	// StateFree: maintained in the kernel, available for (re)use.
	StateFree ChunkState = iota
	// StateAttached: attached to a descriptor segment, receiving packets.
	StateAttached
	// StateCaptured: filled and handed to user space.
	StateCaptured
)

func (s ChunkState) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateAttached:
		return "attached"
	case StateCaptured:
		return "captured"
	default:
		return fmt.Sprintf("ChunkState(%d)", int(s))
	}
}

// ChunkID globally identifies a packet buffer chunk as the paper's
// {nic_id, ring_id, chunk_id} tuple.
type ChunkID struct {
	NIC, Ring, Chunk int
}

func (id ChunkID) String() string {
	return fmt.Sprintf("{nic %d, ring %d, chunk %d}", id.NIC, id.Ring, id.Chunk)
}

// Addr is a simulated process address: where a user process sees a
// cell of a mapped pool.
type Addr uint64

// procSpace tags process addresses, so that no valid one is zero.
const procSpace Addr = 0x3 << 60

// Chunk is a group of M packet-buffer cells occupying simulated physically
// contiguous memory. A chunk is created by a Pool and never freed; only
// its state changes.
type Chunk struct {
	id    ChunkID
	state ChunkState
	pool  *Pool

	// cells[i] is the i-th packet buffer; lens[i] the valid bytes in it;
	// stamps[i] the packet's arrival (capture) timestamp.
	cells  [][]byte
	lens   []int
	stamps []vtime.Time

	// count is the number of cells filled so far; base is the index of
	// the first undelivered packet. Normally base is 0; a timeout flush
	// (which copies the partial contents out to a free chunk) advances
	// base so the already-delivered packets are not delivered twice when
	// the chunk eventually fills. The metadata pkt_count field is
	// count - base.
	count int
	base  int
}

// ID returns the chunk's global identity.
func (c *Chunk) ID() ChunkID { return c.id }

// State returns the chunk's current life-cycle state.
func (c *Chunk) State() ChunkState { return c.state }

// Cells returns the number of cells (M).
func (c *Chunk) Cells() int { return len(c.cells) }

// Count returns the number of cells filled in the chunk.
func (c *Chunk) Count() int { return c.count }

// Base returns the index of the first undelivered packet.
func (c *Chunk) Base() int { return c.base }

// SetBase marks packets before k as already delivered (by a timeout
// flush copy). k must not exceed the filled count.
func (c *Chunk) SetBase(k int) {
	if k < 0 || k > c.count {
		panic(fmt.Sprintf("mem: SetBase(%d) with count %d in %v", k, c.count, c.id))
	}
	c.base = k
}

// PendingCount returns the number of undelivered packets (count - base).
func (c *Chunk) PendingCount() int { return c.count - c.base }

// Cell returns the i-th cell's full buffer.
func (c *Chunk) Cell(i int) []byte { return c.cells[i] }

// Packet returns the valid bytes and timestamp of the i-th stored packet.
func (c *Chunk) Packet(i int) ([]byte, vtime.Time) {
	return c.cells[i][:c.lens[i]], c.stamps[i]
}

// SetPacket records that cell i now holds n valid bytes received at ts.
// The NIC's DMA engine calls it; the bytes themselves were written through
// the cell slice. Cells must be filled in order.
//
//wirecap:hotpath
func (c *Chunk) SetPacket(i, n int, ts vtime.Time) {
	if i != c.count {
		panic(fmt.Sprintf("mem: out-of-order cell fill %d (count %d) in %v", i, c.count, c.id))
	}
	c.lens[i] = n
	c.stamps[i] = ts
	c.count++
}

// MarkBad consumes cell i in fill order for a frame whose DMA write was
// detected as corrupt: the cell is occupied — the strict in-order fill
// invariant holds — but holds no deliverable packet. Tombstones count in
// the chunk's metadata pkt_count, so capture/recycle validation is
// unchanged; delivery paths skip them via Bad.
//
//wirecap:hotpath
func (c *Chunk) MarkBad(i int, ts vtime.Time) {
	if i != c.count {
		panic(fmt.Sprintf("mem: out-of-order cell fill %d (count %d) in %v", i, c.count, c.id))
	}
	c.lens[i] = -1
	c.stamps[i] = ts
	c.count++
}

// Bad reports whether filled cell i is a corrupt-frame tombstone.
func (c *Chunk) Bad(i int) bool { return c.lens[i] < 0 }

// GoodPending returns the number of undelivered packets that are
// deliverable, i.e. PendingCount minus tombstones.
func (c *Chunk) GoodPending() int {
	n := 0
	for i := c.base; i < c.count; i++ {
		if c.lens[i] >= 0 {
			n++
		}
	}
	return n
}

// Full reports whether every cell holds a packet.
func (c *Chunk) Full() bool { return c.count == len(c.cells) }

// ProcAddr returns the address a user process sees for cell i. It is only
// valid while the owning pool is mapped. Chunks lie back to back from
// the pool's base, so the address follows from the chunk's index alone
// and does not depend on what else the process built; Recycle checks the
// NIC and ring before it compares addresses.
func (c *Chunk) ProcAddr(i int) Addr {
	return procSpace | Addr((c.id.Chunk*len(c.cells)+i)*CellSize)
}

// Meta is the metadata descriptor passed between kernel and user space for
// a captured chunk: {ChunkID, process address, packet count}. Passing Meta
// instead of bytes is what makes capture and recycle zero-copy.
type Meta struct {
	ID       ChunkID
	ProcAddr Addr
	PktCount int
}

// Recycle validation errors. The kernel strictly validates metadata coming
// back from user space (paper §3.2.2c); a misbehaving application must not
// corrupt kernel state.
var (
	ErrUnknownChunk  = errors.New("mem: recycle of unknown chunk")
	ErrNotCaptured   = errors.New("mem: recycle of chunk not in captured state")
	ErrBadProcAddr   = errors.New("mem: recycle metadata process address mismatch")
	ErrBadPktCount   = errors.New("mem: recycle metadata packet count mismatch")
	ErrNotMapped     = errors.New("mem: pool not mapped into process space")
	ErrAlreadyMapped = errors.New("mem: pool already mapped")
	ErrNoFreeChunk   = errors.New("mem: no free chunk in pool")
	// ErrTransientAlloc is a fault-injected, retryable allocation failure:
	// the kernel allocator under momentary memory pressure, distinct from
	// genuine pool exhaustion (ErrNoFreeChunk).
	ErrTransientAlloc = errors.New("mem: transient allocation failure")
	// ErrBadReclaim rejects emergency reclamation of a chunk that is free
	// or belongs to another pool.
	ErrBadReclaim = errors.New("mem: reclaim of free or foreign chunk")
)

// PoolStats counts pool-level events.
type PoolStats struct {
	Allocated          uint64 // free -> attached transitions
	Captured           uint64 // attached -> captured transitions
	Recycled           uint64 // captured -> free transitions
	RecycleRejected    uint64 // recycle attempts failing validation
	AllocFailures      uint64 // AllocFree calls that found the pool empty
	TransientAllocFail uint64 // AllocFree calls failed by fault injection
	Reclaimed          uint64 // chunks force-reclaimed by recovery
	LowWatermarkFree   int    // fewest simultaneously free chunks observed
}

// Pool is a ring buffer pool: R chunks of M cells each, allocated in the
// kernel for one receive ring and optionally mapped into one process's
// address space.
type Pool struct {
	nicID, ringID int
	m, r          int
	chunks        []*Chunk
	free          []*Chunk
	mapped        bool
	stats         PoolStats

	// allocFault, when set, fails AllocFree transiently (ErrTransientAlloc)
	// whenever it returns true. The fault injector installs it; keeping it
	// a plain func avoids coupling mem to the faults package.
	allocFault func() bool

	// trace (with its clock) annotates allocation failures and forced
	// reclamations on the run's flight recorder. nil records nothing.
	trace    *obs.Recorder
	traceNow func() vtime.Time
}

// NewPool allocates a pool of r chunks with m cells each for the given
// receive ring.
func NewPool(nicID, ringID, m, r int) *Pool {
	if m <= 0 || r <= 0 {
		panic(fmt.Sprintf("mem: invalid pool geometry M=%d R=%d", m, r))
	}
	p := &Pool{nicID: nicID, ringID: ringID, m: m, r: r}
	p.chunks = make([]*Chunk, r)
	p.free = make([]*Chunk, 0, r)
	for i := 0; i < r; i++ {
		backing := make([]byte, m*CellSize)
		c := &Chunk{
			id:     ChunkID{NIC: nicID, Ring: ringID, Chunk: i},
			pool:   p,
			cells:  make([][]byte, m),
			lens:   make([]int, m),
			stamps: make([]vtime.Time, m),
		}
		for j := 0; j < m; j++ {
			c.cells[j] = backing[j*CellSize : (j+1)*CellSize : (j+1)*CellSize]
		}
		p.chunks[i] = c
		p.free = append(p.free, c)
	}
	p.stats.LowWatermarkFree = r
	return p
}

// R returns the chunks-per-pool geometry parameter.
func (p *Pool) R() int { return p.r }

// MemoryBytes returns the kernel memory the pool occupies (R*M*CellSize),
// the quantity the paper's §5a discusses.
func (p *Pool) MemoryBytes() int { return p.m * p.r * CellSize }

// FreeCount returns the number of chunks currently free.
func (p *Pool) FreeCount() int { return len(p.free) }

// Stats returns a copy of the pool's counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// Map simulates mmap()ing the pool into an application's process space
// (the Open operation does this). Chunk process addresses are valid only
// while mapped.
func (p *Pool) Map() error {
	if p.mapped {
		return ErrAlreadyMapped
	}
	p.mapped = true
	return nil
}

// Unmap reverses Map (the Close operation).
func (p *Pool) Unmap() error {
	if !p.mapped {
		return ErrNotMapped
	}
	p.mapped = false
	return nil
}

// SetAllocFault installs (or clears, with nil) the transient allocation
// fault hook consulted by AllocFree.
func (p *Pool) SetAllocFault(fn func() bool) { p.allocFault = fn }

// SetTrace attaches the run's flight recorder and its clock: allocation
// failures (transient faults and genuine exhaustion) and emergency
// reclamations become annotated events. The pool has no scheduler of
// its own, hence the injected clock.
func (p *Pool) SetTrace(rec *obs.Recorder, now func() vtime.Time) {
	p.trace = rec
	p.traceNow = now
}

// AllocFree takes a free chunk and attaches it (free -> attached). The
// caller ties its cells to a descriptor segment. A transient injected
// fault fails the call with ErrTransientAlloc before the free list is
// consulted — the chunk is there, the allocator just cannot produce it
// right now, so the caller should retry with backoff.
//
//wirecap:hotpath
func (p *Pool) AllocFree() (*Chunk, error) {
	if p.allocFault != nil && p.allocFault() {
		p.stats.TransientAllocFail++
		if p.trace != nil {
			p.trace.Action("alloc_fault", p.nicID, p.ringID, 0, p.traceNow())
		}
		return nil, ErrTransientAlloc
	}
	if len(p.free) == 0 {
		p.stats.AllocFailures++
		if p.trace != nil {
			p.trace.Action("pool_exhausted", p.nicID, p.ringID, 0, p.traceNow())
		}
		return nil, ErrNoFreeChunk
	}
	c := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	c.state = StateAttached
	c.count = 0
	c.base = 0
	p.stats.Allocated++
	if n := len(p.free); n < p.stats.LowWatermarkFree {
		p.stats.LowWatermarkFree = n
	}
	return c, nil
}

// Capture transitions an attached chunk to captured and returns the
// metadata handed to user space. It fails if the pool is not mapped: user
// space could not address the chunk.
//
//wirecap:hotpath
func (p *Pool) Capture(c *Chunk) (Meta, error) {
	if !p.mapped {
		return Meta{}, ErrNotMapped
	}
	if c.state != StateAttached {
		return Meta{}, fmt.Errorf("mem: capture of %v in state %v", c.id, c.state) //wirelint:allow hotpath rejection path is cold; runs once per invalid capture
	}
	c.state = StateCaptured
	p.stats.Captured++
	return Meta{ID: c.id, ProcAddr: c.ProcAddr(0), PktCount: c.count - c.base}, nil
}

// Recycle validates user-supplied metadata and returns the chunk to the
// free list (captured -> free). Validation is strict: unknown IDs, wrong
// state, forged addresses and wrong counts are all rejected without
// touching kernel state. Holding a chunk back while its packets are still
// in use (forwarding, §3.2.1) is the caller's job: internal/core recycles
// a chunk only once none of its packets is outstanding.
//
//wirecap:hotpath
func (p *Pool) Recycle(m Meta) error {
	if m.ID.NIC != p.nicID || m.ID.Ring != p.ringID ||
		m.ID.Chunk < 0 || m.ID.Chunk >= len(p.chunks) {
		p.stats.RecycleRejected++
		return fmt.Errorf("%w: %v", ErrUnknownChunk, m.ID) //wirelint:allow hotpath rejection path is cold; runs once per invalid recycle
	}
	c := p.chunks[m.ID.Chunk]
	if c.state != StateCaptured {
		p.stats.RecycleRejected++
		return fmt.Errorf("%w: %v is %v", ErrNotCaptured, m.ID, c.state) //wirelint:allow hotpath rejection path is cold; runs once per invalid recycle
	}
	if m.ProcAddr != c.ProcAddr(0) {
		p.stats.RecycleRejected++
		return fmt.Errorf("%w: %v", ErrBadProcAddr, m.ID) //wirelint:allow hotpath rejection path is cold; runs once per invalid recycle
	}
	if m.PktCount != c.count-c.base {
		p.stats.RecycleRejected++
		return fmt.Errorf("%w: %v: meta %d, chunk %d", ErrBadPktCount, m.ID, m.PktCount, c.count-c.base) //wirelint:allow hotpath rejection path is cold; runs once per invalid recycle
	}
	c.state = StateFree
	c.count = 0
	c.base = 0
	p.free = append(p.free, c) //wirelint:allow hotpath free list capacity R is preallocated at pool construction
	p.stats.Recycled++
	return nil
}

// Reclaim force-returns an attached or captured chunk to the free list,
// discarding its contents — the kernel's emergency path when the pool is
// exhausted and user space is not recycling. The caller accounts the
// PendingCount packets it throws away as reclaim drops before calling.
//
//wirecap:hotpath
func (p *Pool) Reclaim(c *Chunk) error {
	if c.pool != p || c.state == StateFree {
		return fmt.Errorf("%w: %v state %v", ErrBadReclaim, c.id, c.state) //wirelint:allow hotpath rejection path is cold; runs once per invalid reclaim
	}
	if p.trace != nil {
		p.trace.Action("pool_reclaim", p.nicID, p.ringID, int64(c.PendingCount()), p.traceNow())
	}
	c.state = StateFree
	c.count = 0
	c.base = 0
	p.free = append(p.free, c) //wirelint:allow hotpath free list capacity R is preallocated at pool construction
	p.stats.Reclaimed++
	return nil
}

// ForEachAttached calls fn for every chunk currently attached, in chunk
// index order (deterministic). Recovery sweeps use it to find the chunks
// a quarantined queue left tied to descriptors.
func (p *Pool) ForEachAttached(fn func(*Chunk)) {
	for _, c := range p.chunks {
		if c.state == StateAttached {
			fn(c)
		}
	}
}

// lookup returns the chunk for an ID.
func (p *Pool) lookup(id ChunkID) (*Chunk, bool) {
	if id.NIC != p.nicID || id.Ring != p.ringID || id.Chunk < 0 || id.Chunk >= len(p.chunks) {
		return nil, false
	}
	return p.chunks[id.Chunk], true
}

// CheckInvariants verifies the pool's conservation invariant: every chunk
// is in exactly one state and free chunks are exactly the free list.
// Property tests call it after random operation sequences.
//
//wirelint:allow deadexport test oracle: core's checkPools (TestForwardingRefcountDelaysRecycle and others) and TestRandomBurstConservation call it
func (p *Pool) CheckInvariants() error {
	onFree := make(map[ChunkID]bool, len(p.free))
	for _, c := range p.free {
		if onFree[c.id] {
			return fmt.Errorf("mem: chunk %v on free list twice", c.id)
		}
		onFree[c.id] = true
	}
	freeCount := 0
	for _, c := range p.chunks {
		switch c.state {
		case StateFree:
			freeCount++
			if !onFree[c.id] {
				return fmt.Errorf("mem: free chunk %v not on free list", c.id)
			}
		case StateAttached, StateCaptured:
			if onFree[c.id] {
				return fmt.Errorf("mem: %v chunk %v on free list", c.state, c.id)
			}
		default:
			return fmt.Errorf("mem: chunk %v in invalid state %d", c.id, c.state)
		}
		if c.count < 0 || c.count > p.m {
			return fmt.Errorf("mem: chunk %v count %d out of range", c.id, c.count)
		}
		if c.base < 0 || c.base > c.count {
			return fmt.Errorf("mem: chunk %v base %d out of range (count %d)", c.id, c.base, c.count)
		}
	}
	if freeCount != len(p.free) {
		return fmt.Errorf("mem: %d free chunks but free list has %d", freeCount, len(p.free))
	}
	return nil
}
