// Package rng is the repository's one seedable pseudorandom generator.
// The simulator, the dataset samplers and every classifier draw from
// it, so a seed fixes their output on any machine. It imports only the
// standard library.
package rng

import "math"

// RNG is a small, fast, seedable pseudorandom generator (xoshiro256**)
// with helpers for the distributions the simulator draws from. Each
// simulated drive gets its own RNG derived from the fleet seed and the
// drive ID, so generation is deterministic and embarrassingly parallel.
type RNG struct {
	s [4]uint64
}

// splitMix64 is the recommended seeding generator for xoshiro.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded from seed via SplitMix64.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from a single 64-bit seed.
func (r *RNG) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// Avoid the all-zero state (cannot occur from SplitMix64, but keep
	// the invariant explicit).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Derive returns a new RNG whose stream is independent of r for distinct
// stream IDs; used to give each drive its own deterministic stream.
func (r *RNG) Derive(stream uint64) *RNG {
	x := r.s[0] ^ (stream+1)*0x9e3779b97f4a7c15
	var out RNG
	for i := range out.s {
		out.s[i] = splitMix64(&x)
	}
	return &out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponential deviate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Weibull returns a Weibull deviate with the given scale and shape.
// Shape < 1 gives a decreasing hazard — the classic infant-mortality
// regime of reliability engineering.
func (r *RNG) Weibull(scale, shape float64) float64 {
	return scale * math.Pow(-math.Log(1-r.Float64()), 1/shape)
}

// LogNormal returns exp(N(mu, sigma^2)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto (type I) deviate with minimum xm and tail index
// alpha; small alpha gives the heavy, orders-of-magnitude tails seen in
// pre-failure error bursts.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Poisson returns a Poisson deviate with the given mean. It uses Knuth's
// product method for small means and a normal approximation for large
// ones (the simulator only needs counts, not exact tail behaviour, above
// ~30 events/day).
func (r *RNG) Poisson(mean float64) uint64 {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	l := math.Exp(-mean)
	var k uint64
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial returns a Binomial(n, p) deviate. Small n uses direct
// simulation; large n uses a normal approximation clamped to [0, n].
func (r *RNG) Binomial(n uint64, p float64) uint64 {
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 32 {
		var k uint64
		for i := uint64(0); i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	v := mean + sd*r.NormFloat64()
	if v < 0 {
		return 0
	}
	if v > float64(n) {
		return n
	}
	return uint64(v + 0.5)
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}).
func (r *RNG) Geometric(p float64) uint64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with p <= 0")
	}
	return uint64(math.Floor(math.Log(1-r.Float64()) / math.Log(1-p)))
}
