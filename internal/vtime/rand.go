package vtime

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64 for seeding, xoshiro256** for the stream). Experiments seed
// one Rand per workload so runs are reproducible regardless of Go version
// or math/rand internals.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from the given value. Any seed,
// including zero, yields a full-quality stream.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 to expand the seed into four non-degenerate state words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// SplitSeed derives an independent child seed from a root seed and a
// stream index, so a simulation can give every host (or injector) its
// own full-quality deterministic stream that depends only on the root
// seed and the stream's stable identity. The derivation
// is a splitmix64 mix of the root with a golden-ratio-spaced stream
// offset, the same construction NewRand uses internally.
func SplitSeed(seed, stream uint64) uint64 {
	x := seed + (stream+1)*0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("vtime: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// expFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) expFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Pareto returns a bounded-Pareto-like heavy-tailed value with the given
// shape alpha and minimum xm. Used for flow sizes in the border-router
// traffic model.
func (r *Rand) Pareto(alpha, xm float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 > 0 {
			return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		}
	}
}
