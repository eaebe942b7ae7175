package nic

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/packet"
)

// Receive-side scaling (RSS) as commodity NICs implement it: the Toeplitz
// hash over the IP addresses and transport ports selects an entry in an
// indirection table, which names the receive queue. Because the hash is a
// pure function of the flow tuple, every packet of a flow lands on the
// same queue — which preserves application logic but produces exactly the
// load imbalance the WireCAP paper studies.

// DefaultRSSKey is the 40-byte key from the Microsoft RSS specification,
// the de-facto default programmed by most drivers.
var DefaultRSSKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// Toeplitz computes the Toeplitz hash of data under key. The key must be
// at least len(data)+4 bytes; DefaultRSSKey covers the 12-byte IPv4
// 4-tuple input.
func Toeplitz(key []byte, data []byte) uint32 {
	if len(key)*8 < len(data)*8+32 {
		panic("nic: Toeplitz key too short for input")
	}
	result := uint32(0)
	window := binary.BigEndian.Uint32(key[:4])
	keyBit := 32
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				result ^= window
			}
			next := (key[keyBit/8] >> uint(7-keyBit%8)) & 1
			window = window<<1 | uint32(next)
			keyBit++
		}
	}
	return result
}

// RSSHash computes the RSS hash for a flow: over the 12-byte
// {src, dst, sport, dport} input for TCP and UDP, and over the 8-byte
// {src, dst} input otherwise, matching hardware behaviour.
func RSSHash(key []byte, flow packet.FlowKey) uint32 {
	var buf [12]byte
	copy(buf[0:4], flow.Src[:])
	copy(buf[4:8], flow.Dst[:])
	if flow.Proto == packet.ProtoTCP || flow.Proto == packet.ProtoUDP {
		binary.BigEndian.PutUint16(buf[8:10], flow.SrcPort)
		binary.BigEndian.PutUint16(buf[10:12], flow.DstPort)
		return Toeplitz(key, buf[:12])
	}
	return Toeplitz(key, buf[:8])
}

// toeplitzTable is the byte-at-a-time form of the Toeplitz hash: entry
// [i][v] is the XOR of the key windows selected by the set bits of input
// byte v at byte position i, so hashing is 12 table lookups instead of 96
// shift-and-xor steps. The output is bit-identical to Toeplitz.
type toeplitzTable [12][256]uint32

// windowAt returns key bits [g, g+32) as a uint32, reading past the end
// of key as zeros.
func windowAt(key []byte, g int) uint32 {
	var buf [8]byte
	copy(buf[:], key[g/8:])
	v := binary.BigEndian.Uint64(buf[:])
	return uint32(v >> (32 - uint(g%8)))
}

// newToeplitzTable fills each row by linearity: entry v is entry v with
// its lowest set bit cleared, XOR that bit's key window, so a row costs
// 255 XORs rather than 8×256 tests.
func newToeplitzTable(key []byte) *toeplitzTable {
	t := new(toeplitzTable)
	for i := range t {
		var w [8]uint32 // w[b]: the window bit b (value 1<<b) selects
		for b := range w {
			w[b] = windowAt(key, i*8+7-b)
		}
		for v := 1; v < 256; v++ {
			t[i][v] = t[i][v&(v-1)] ^ w[bits.TrailingZeros8(uint8(v))]
		}
	}
	return t
}

// FlowHasher is the exported face of the table-driven Toeplitz hash:
// construct once per key, then hash flows at 12 table lookups each. The
// fleet steering layer (internal/fleet) uses it with its own key so
// host placement decorrelates from the per-NIC queue placement.
type FlowHasher struct {
	tt *toeplitzTable
}

// NewFlowHasher precomputes the byte-at-a-time tables for key.
func NewFlowHasher(key [40]byte) *FlowHasher {
	return &FlowHasher{tt: newToeplitzTable(key[:])}
}

// Hash returns the Toeplitz hash of the flow, bit-identical to RSSHash
// under the same key.
//
//wirecap:hotpath
func (fh *FlowHasher) Hash(flow packet.FlowKey) uint32 { return fh.tt.hashFlow(flow) }

// hashFlow mirrors RSSHash over the precomputed table.
//
//wirecap:hotpath
func (t *toeplitzTable) hashFlow(flow packet.FlowKey) uint32 {
	h := t[0][flow.Src[0]] ^ t[1][flow.Src[1]] ^ t[2][flow.Src[2]] ^ t[3][flow.Src[3]] ^
		t[4][flow.Dst[0]] ^ t[5][flow.Dst[1]] ^ t[6][flow.Dst[2]] ^ t[7][flow.Dst[3]]
	if flow.Proto == packet.ProtoTCP || flow.Proto == packet.ProtoUDP {
		h ^= t[8][byte(flow.SrcPort>>8)] ^ t[9][byte(flow.SrcPort)] ^
			t[10][byte(flow.DstPort>>8)] ^ t[11][byte(flow.DstPort)]
	}
	return h
}

// Steering selects a receive queue for an incoming frame.
type Steering interface {
	// Queue returns the receive-queue index for the frame. ok is false
	// when the frame could not be classified (it then goes to queue 0,
	// as hardware defaults do).
	Queue(d *packet.Decoded) (q int, ok bool)
}

// QueueReSteerer is implemented by steering mechanisms whose placement
// can be rewritten when a queue dies. ReSteerQueue removes dead from the
// placement, spreading its load across the healthy queues, and returns
// how many entries it rewrote. Because steering is a pure function of
// the flow tuple plus this state, a rewrite moves each affected flow to
// exactly one new queue — per-flow ordering survives the move.
type QueueReSteerer interface {
	ReSteerQueue(dead int, healthy []int) int
}

// Indirection is a hash-indexed placement table: entry hash%len names
// the target — a receive queue for NIC RSS, a capture host for fleet
// steering (internal/fleet). Because lookup is a pure function of the
// flow hash plus this table, every packet of a flow lands on the same
// target, and a deterministic table rewrite moves each affected flow to
// exactly one new target.
type Indirection struct {
	table []int
}

// NewIndirection returns an equal-weight table of the given size across
// n targets (entry i names target i%n), the layout drivers program by
// default.
func NewIndirection(entries, n int) *Indirection {
	t := &Indirection{table: make([]int, entries)}
	for i := range t.table {
		t.table[i] = i % n
	}
	return t
}

// Lookup returns the target for hash h.
//
//wirecap:hotpath
func (t *Indirection) Lookup(h uint32) int { return t.table[h%uint32(len(t.table))] }

// Clone returns an independent copy — fleet hosts each hold a private
// replica updated by broadcast re-steer operations, and applying the
// same operation sequence to identical clones keeps them identical.
func (t *Indirection) Clone() *Indirection {
	c := &Indirection{table: make([]int, len(t.table))}
	copy(c.table, t.table)
	return c
}

// ReSteer rewrites every entry naming the dead target to one of the
// healthy targets, round-robin in table order so the displaced load
// spreads evenly and deterministically. It returns how many entries it
// rewrote.
func (t *Indirection) ReSteer(dead int, healthy []int) int {
	if len(healthy) == 0 {
		return 0
	}
	moved := 0
	for i, q := range t.table {
		if q == dead {
			t.table[i] = healthy[moved%len(healthy)]
			moved++
		}
	}
	return moved
}

// Restore rewrites the entries owned by target in the canonical
// equal-weight layout (entry i names target i%n) back to that target —
// the readmission inverse of ReSteer. It returns how many entries moved.
func (t *Indirection) Restore(target, n int) int {
	moved := 0
	for i := range t.table {
		if i%n == target && t.table[i] != target {
			t.table[i] = target
			moved++
		}
	}
	return moved
}

// RSSSteering is hardware RSS: Toeplitz hash + indirection table.
type RSSSteering struct {
	key [40]byte
	tt  *toeplitzTable // per-byte expansion of key, the per-packet path
	ind *Indirection   // indirection table: hash LSBs -> queue
}

// IndirectionEntries is the indirection-table size of the Intel 82599
// (128 entries).
const IndirectionEntries = 128

// NewRSS returns RSS steering across n queues with the default key and an
// equal-weight indirection table, as drivers program by default.
func NewRSS(n int) *RSSSteering {
	s := &RSSSteering{key: DefaultRSSKey, ind: NewIndirection(IndirectionEntries, n)}
	s.tt = newToeplitzTable(s.key[:])
	return s
}

// ReSteerQueue implements QueueReSteerer: every indirection-table entry
// naming the dead queue is rewritten to one of the healthy queues,
// round-robin in table order so the displaced load spreads evenly and
// deterministically.
func (s *RSSSteering) ReSteerQueue(dead int, healthy []int) int {
	return s.ind.ReSteer(dead, healthy)
}

// Queue implements Steering.
//
//wirecap:hotpath
func (s *RSSSteering) Queue(d *packet.Decoded) (int, bool) {
	if d.IPVersion != 4 && d.IPVersion != 6 {
		return 0, false
	}
	return s.ind.Lookup(s.tt.hashFlow(d.Flow)), true
}

// RoundRobinSteering distributes packets evenly regardless of flow — the
// paper's §2.3 "first approach", which balances load but breaks
// application logic because one flow's packets spray across queues.
type RoundRobinSteering struct {
	n, next int
}

// NewRoundRobin returns round-robin steering across n queues.
func NewRoundRobin(n int) *RoundRobinSteering { return &RoundRobinSteering{n: n} }

// Queue implements Steering.
func (s *RoundRobinSteering) Queue(*packet.Decoded) (int, bool) {
	q := s.next
	s.next = (s.next + 1) % s.n
	return q, true
}
