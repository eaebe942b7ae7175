package main

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
)

// The calibration kernel is fixed code that belongs to the benchmark, so
// no change to the simulator moves it. It runs after every rep, and each
// pass has two halves of about 25 ms: integer mixing with a
// data-dependent branch, run from registers, and a miniature event loop
// (a heap of pending timestamps, each event copying a 64-byte frame into
// a pseudo-random slot of a pool larger than L2). On a shared host the
// speed the host allows drifts within and across runs. Some drift slows
// the core and some the caches, and the simulator feels both. Scaling rep
// times by calibRefMs over the kernel's time removes most of that drift;
// README.md gives the measurements behind this choice.
const (
	calibMixIters = 8_000_000
	calibEvents   = 600_000
	calibPool     = 16 << 20
	calibSlot     = 2048
	// calibRefMs is the kernel's fast-decile time on the reference host
	// (a 2-vCPU cloud VM), so calibrated numbers read as that host's.
	calibRefMs = 52.8
)

type calibrator struct {
	pool []byte
	heap []uint64
	ms   []float64 // every pass's time, in order
	sink uint64
}

func newCalibrator() *calibrator {
	return &calibrator{pool: make([]byte, calibPool), heap: make([]uint64, 0, 1024)}
}

// run times one pass in ms.
func (c *calibrator) run(tr *tracer) float64 {
	start := tr.now()
	c.sink += mix() + c.events()
	ms := float64(tr.now()-start) / 1e6
	c.ms = append(c.ms, ms)
	return ms
}

func mix() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < calibMixIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			x += uint64(i)
		}
	}
	return x
}

// events runs a fixed event loop over 1024 pending timestamps.
func (c *calibrator) events() uint64 {
	h := c.heap[:0]
	x := uint64(12345)
	lcg := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < cap(h); i++ {
		h = heapPush(h, lcg()>>20)
	}
	var frame [64]byte
	var acc uint64
	slots := uint64(len(c.pool) / calibSlot)
	for i := 0; i < calibEvents; i++ {
		var t uint64
		h, t = heapPop(h)
		slot := c.pool[(lcg()>>33)%slots*calibSlot:]
		copy(slot, frame[:])
		acc += uint64(slot[t&63])
		frame[i&63]++
		h = heapPush(h, t+lcg()>>40)
	}
	return acc
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) ([]uint64, uint64) {
	v := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return h, v
}

// A sample is one measured rep.
type sample struct {
	out    outcome
	spans  repSpans
	wall   float64 // ns, the rep end to end as seen from outside its spans
	traced bool

	allocBytes, mallocs uint64 // the whole rep: setup, run and report
}

// A plan bounds a measurement: reps run until seconds have passed and at
// least minReps ran, or maxReps ran. traced(i) says whether rep i is.
type plan struct {
	seconds          float64
	minReps, maxReps int
	traced           func(i int) bool
	spans            int // span capacity a traced rep needs
}

// measureReps runs reps of w by p, each cold (the heap returned to the
// OS before it) and followed by a calibration pass.
func measureReps(w workload, seed uint64, tr *tracer, cal *calibrator, p plan) []sample {
	var out []sample
	debug.FreeOSMemory()
	cal.run(tr)
	start := tr.now()
	for i := 0; len(out) < p.maxReps && (len(out) < p.minReps || float64(tr.now()-start) < p.seconds*1e9); i++ {
		tr.detail = p.traced(i)
		if tr.detail {
			tr.spans = slices.Grow(tr.spans, p.spans)
		}
		tr.calls = [numSpanKinds]uint64{}
		mark := len(tr.spans)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w0 := tr.now()
		o := runRep(w, seed, tr)
		wall := float64(tr.now() - w0)
		runtime.ReadMemStats(&m1)
		tr.detail = false
		out = append(out, sample{
			out: o, spans: tr.summarize(mark), wall: wall, traced: p.traced(i),
			allocBytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
		})
		cal.run(tr)
		debug.FreeOSMemory()
	}
	return out
}

// quantile returns the k-th of the n-1 cut points that split v into n
// groups, by the method of Python's statistics.quantiles (the default,
// "exclusive" one), clamped to v's range: quantile(v, 1, 2) is the
// median, quantile(v, 1, 10) the first decile.
func quantile(v []float64, k, n int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := len(s) + 1
	j := k * m / n
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := float64(k*m - j*n)
	q := (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	return min(max(q, s[0]), s[len(s)-1])
}

func median(v []float64) float64 { return quantile(v, 1, 2) }

func quartiles(v []float64) [3]float64 {
	return [3]float64{quantile(v, 1, 4), quantile(v, 2, 4), quantile(v, 3, 4)}
}

// fastDecile is the first decile of a list of times: noise on a shared
// host only ever adds time, so the fastest tenth of reps estimates what
// the code costs when the host lets it run.
func fastDecile(v []float64) float64 { return quantile(v, 1, 10) }

// each maps f over xs.
func each[T any](xs []T, f func(T) float64) []float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
