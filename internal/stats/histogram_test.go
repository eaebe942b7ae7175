package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.String() != "histogram{empty}" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestExactSmallValues(t *testing.T) {
	// Values below subBuckets are recorded exactly.
	var h Histogram
	for v := int64(0); v < subBuckets; v++ {
		h.Record(v)
	}
	for q := 1; q <= subBuckets; q++ {
		want := int64(q - 1)
		got := h.Percentile(float64(q) / subBuckets)
		if got != want {
			t.Fatalf("P%.3f = %d, want %d", float64(q)/subBuckets, got, want)
		}
	}
}

func TestBucketRoundTripMonotone(t *testing.T) {
	// lowerBoundOf(bucketOf(v)) <= v and buckets are monotone.
	f := func(raw int64) bool {
		v := raw & math.MaxInt64
		b := bucketOf(v)
		lo := lowerBoundOf(b)
		if lo > v {
			return false
		}
		// v is within ~2x resolution of its bucket's lower bound.
		if v >= subBuckets && float64(v-lo) > float64(v)/subBuckets*2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Buckets up to exponent 62 are reachable from int64 samples; bucket
	// indices beyond that would need values over 2^63.
	maxReachable := bucketOf(math.MaxInt64)
	for i := 1; i <= maxReachable; i++ {
		if lowerBoundOf(i) < lowerBoundOf(i-1) {
			t.Fatalf("lower bounds not monotone at %d", i)
		}
	}
}

func TestPercentileAccuracy(t *testing.T) {
	// Against a sorted sample, percentile estimates are within the
	// documented ~2/subBuckets relative error.
	r := vtime.NewRand(42)
	var h Histogram
	var samples []int64
	for i := 0; i < 50000; i++ {
		v := int64(r.Pareto(1.3, 100))
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		idx := int(q*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		want := float64(samples[idx])
		got := float64(h.Percentile(q))
		if relErr := math.Abs(got-want) / want; relErr > 0.08 {
			t.Fatalf("P%v = %.0f, want %.0f (err %.3f)", q, got, want, relErr)
		}
	}
}

func TestMinMaxMeanExact(t *testing.T) {
	var h Histogram
	vals := []int64{5, 100, 3, 987654321, 42}
	var sum int64
	for _, v := range vals {
		h.Record(v)
		sum += v
	}
	if h.Min() != 3 || h.Max() != 987654321 {
		t.Fatalf("min %d max %d", h.Min(), h.Max())
	}
	if h.Mean() != float64(sum)/float64(len(vals)) {
		t.Fatalf("mean %v", h.Mean())
	}
	// Percentiles are clamped into [min, max].
	if h.Percentile(0) < h.Min() || h.Percentile(1) > h.Max() {
		t.Fatal("percentiles escape [min, max]")
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Percentile(1) != 0 {
		t.Fatal("negative not clamped")
	}
}

func TestMerge(t *testing.T) {
	var a, b, all Histogram
	r := vtime.NewRand(7)
	for i := 0; i < 10000; i++ {
		v := int64(r.Intn(1_000_000))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() {
		t.Fatal("merge lost samples")
	}
	for _, q := range []float64{0.25, 0.5, 0.95} {
		if a.Percentile(q) != all.Percentile(q) {
			t.Fatalf("P%v differs after merge", q)
		}
	}
	// Merging an empty histogram is a no-op.
	var empty Histogram
	before := a.Count()
	a.Merge(&empty)
	if a.Count() != before {
		t.Fatal("merging empty changed count")
	}
}
