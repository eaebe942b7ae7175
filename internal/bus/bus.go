// Package bus models the host I/O path (PCIe plus memory controller) as a
// shared token-bucket bandwidth budget. The WireCAP paper's scalability
// experiment (Figure 14) shows both DNA and WireCAP dropping packets once
// two NICs of 64-byte line-rate traffic saturate the system bus, with
// WireCAP paying extra for its ring-buffer-pool metadata I/O; this package
// provides the mechanism that reproduces that behaviour.
package bus

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/vtime"
)

// Config describes a bus.
type Config struct {
	// BytesPerSec is the sustained transfer budget shared by every device
	// on the bus. Zero means unlimited (experiments that are not
	// bus-bound use an unlimited bus so results isolate the engines).
	BytesPerSec float64
	// BurstBytes is the token-bucket depth: how much transfer can happen
	// "at once" before the rate limit binds. Defaults to 64 KB.
	BurstBytes int
	// PerTransferOverhead is charged on every transfer in addition to its
	// payload: descriptor fetch, writeback, and doorbell traffic. Real
	// PCIe moves small packets with substantial per-TLP overhead, which
	// is why 64-byte line rate saturates a bus that 100-byte line rate
	// does not.
	PerTransferOverhead int
	// PagePenaltyBytes models the extra memory traffic per transfer
	// caused by TLB misses when a very large working set (big ring buffer
	// pools) defeats the page cache; see paper §4 "WireCAP-A-(256,500)
	// performs poorly @ queues/NIC=5 or 6". Engines set this based on
	// their memory footprint.
	PagePenaltyBytes int
}

// Bus is a shared bandwidth budget. It is driven in virtual time and is
// not safe for concurrent use (the simulation is single-threaded).
type Bus struct {
	cfg    Config
	tokens float64
	last   vtime.Time

	// Counters.
	transfers uint64
	bytes     uint64
	rejected  uint64
}

// Stats reports cumulative bus activity.
type Stats struct {
	Transfers uint64
	Bytes     uint64
	Rejected  uint64
}

// New returns a bus with the given configuration.
func New(cfg Config) *Bus {
	if cfg.BurstBytes <= 0 {
		cfg.BurstBytes = 64 * 1024
	}
	return &Bus{cfg: cfg, tokens: float64(cfg.BurstBytes)}
}

// Unlimited returns a bus that never rejects a transfer.
func Unlimited() *Bus { return New(Config{}) }

// Limited reports whether the bus enforces a bandwidth budget.
func (b *Bus) Limited() bool { return b.cfg.BytesPerSec > 0 }

// refill advances the token bucket to the current time.
func (b *Bus) refill(now vtime.Time) {
	if now <= b.last {
		return
	}
	dt := float64(now-b.last) / float64(vtime.Second)
	b.tokens += dt * b.cfg.BytesPerSec
	if maxTokens := float64(b.cfg.BurstBytes); b.tokens > maxTokens {
		b.tokens = maxTokens
	}
	b.last = now
}

// TryTransfer attempts to move payload bytes (plus configured overheads,
// plus extraOverhead charged by the caller for, e.g., chunk-metadata I/O)
// across the bus at the given virtual time. It returns false — and
// consumes nothing — when the budget is exhausted; the caller then drops
// the packet, exactly as a NIC whose DMA cannot complete in time does.
func (b *Bus) TryTransfer(now vtime.Time, payload, extraOverhead int) bool {
	if payload < 0 || extraOverhead < 0 {
		panic(fmt.Sprintf("bus: negative transfer %d+%d", payload, extraOverhead))
	}
	total := payload + b.cfg.PerTransferOverhead + b.cfg.PagePenaltyBytes + extraOverhead
	if !b.Limited() {
		b.transfers++
		b.bytes += uint64(total)
		return true
	}
	b.refill(now)
	if b.tokens < float64(total) {
		b.rejected++
		return false
	}
	b.tokens -= float64(total)
	b.transfers++
	b.bytes += uint64(total)
	return true
}

// Stats returns cumulative counters.
func (b *Bus) Stats() Stats {
	return Stats{Transfers: b.transfers, Bytes: b.bytes, Rejected: b.rejected}
}

// Register exports the bus counters through the metrics registry —
// wirecap_bus_transfers_total, wirecap_bus_bytes_total, and
// wirecap_bus_rejected_total — so rejected transfers show up in
// snapshots and gate digests instead of only the Stats struct. All
// function-backed: sampled at snapshot time, zero hot-path cost. Labels
// disambiguate multiple buses sharing one registry (per-host
// aggregation links in fleet runs).
func (b *Bus) Register(reg *metrics.Registry, labels ...metrics.Label) {
	reg.CounterFunc("wirecap_bus_transfers_total",
		func() uint64 { return b.transfers }, labels...)
	reg.CounterFunc("wirecap_bus_bytes_total",
		func() uint64 { return b.bytes }, labels...)
	reg.CounterFunc("wirecap_bus_rejected_total",
		func() uint64 { return b.rejected }, labels...)
}
