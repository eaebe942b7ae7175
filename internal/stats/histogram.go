// Package stats provides a small log-bucketed streaming histogram for
// latency accounting: constant memory, constant-time recording, and
// percentile queries with bounded relative error — the tool the
// experiment tables use for delivery-delay distributions.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// subBucketBits sets the resolution: each power-of-two range is split
// into 2^subBucketBits linear sub-buckets, bounding relative error to
// about 1/2^subBucketBits (~3% here).
const subBucketBits = 5

const subBuckets = 1 << subBucketBits

// Histogram records non-negative int64 samples (nanoseconds, bytes,
// counts — any unit). The zero value is ready to use.
type Histogram struct {
	buckets [64 * subBuckets]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v) // exact for small values
	}
	u := uint64(v)
	exp := 63 - bits.LeadingZeros64(u)
	// Linear position within the power-of-two range [2^exp, 2^(exp+1)).
	sub := int((u >> (uint(exp) - subBucketBits)) & (subBuckets - 1))
	return (exp-subBucketBits+1)*subBuckets + sub
}

// lowerBoundOf returns the smallest value mapping to bucket i.
func lowerBoundOf(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + subBucketBits - 1
	sub := i % subBuckets
	return (1 << uint(exp)) | int64(sub)<<(uint(exp)-subBucketBits)
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the extreme samples (exact, not bucketed).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns an estimate of the q-quantile (q in [0,1]), with
// relative error bounded by the sub-bucket resolution. With no samples it
// returns 0.
func (h *Histogram) Percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the desired sample (1-based), ceil(q * count).
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i]
		if seen >= rank {
			v := lowerBoundOf(i)
			if v > h.max {
				return h.max
			}
			if v < h.min {
				return h.min
			}
			return v
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "histogram{n=%d mean=%.1f p50=%d p99=%d max=%d}",
		h.count, h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.max)
	return sb.String()
}
