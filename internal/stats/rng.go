// Package stats provides the deterministic random-number generation,
// probability distributions, and descriptive-statistics helpers used by
// every stochastic component of the course simulator.
//
// All randomness in the repository flows through *stats.RNG so that a
// simulation run is fully reproducible from a single seed. The generator
// is SplitMix64 feeding xoshiro256**, both public-domain algorithms with
// well-studied statistical quality, implemented here so the module stays
// stdlib-only and stable across Go releases (math/rand's global source
// ordering is not guaranteed between versions).
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; give each goroutine its own RNG via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64 so that
// nearby seeds produce uncorrelated streams.
//
// NewRNG and Split stay small enough to inline, so a child that does not
// escape its caller lives on the caller's stack; the seeding work sits in
// the out-of-line helpers below.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.seed(seed)
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state and label, and advancing the
// child never perturbs the parent, so adding a new consumer does not shift
// the random sequence seen by existing consumers.
func (r *RNG) Split(label uint64) *RNG {
	c := new(RNG)
	c.seedChild(r, label)
	return c
}

// seed fills the state from seed via SplitMix64. Inlining it would push
// NewRNG over the inlining budget.
//
//go:noinline
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// seedChild seeds r as parent's child for label. Inlining it would push
// Split over the inlining budget.
//
//go:noinline
func (r *RNG) seedChild(parent *RNG, label uint64) {
	r.seed(parent.s[0] ^ rotl(parent.s[2], 17) ^ (label * 0xd1342543de82ef95))
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// The implementation is Lemire's multiply-shift rejection sampler
// (arXiv:1805.10941): a plain Uint64()%n over-weights small residues for
// any n that does not divide 2^64, which visibly skews Shuffle/Perm for
// non-power-of-two n. The rejection loop consumes extra draws with
// probability < n/2^64, so for simulation-sized n it almost never
// re-draws, and the stream stays deterministic for a given seed.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un // (2^64 - n) mod n: below it, hi is biased
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a standard normal variate (Box–Muller; the second value
// of each pair is discarded to keep the stream consumption predictable at
// one draw per two Uint64 calls).
func (r *RNG) Normal() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(N(mu, sigma)). Mean of the distribution is
// exp(mu + sigma^2/2).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// LogNormalMean returns a lognormal variate with the given arithmetic mean
// and shape sigma: mu is solved so that E[X] = mean.
func (r *RNG) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	mu := math.Log(mean) - sigma*sigma/2
	return r.LogNormal(mu, sigma)
}

// Exponential returns an exponential variate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Triangular returns a triangular variate on [lo, hi] with the given mode.
func (r *RNG) Triangular(lo, mode, hi float64) float64 {
	u := r.Float64()
	c := (mode - lo) / (hi - lo)
	if u < c {
		return lo + math.Sqrt(u*(hi-lo)*(mode-lo))
	}
	return hi - math.Sqrt((1-u)*(hi-lo)*(hi-mode))
}

// Choice returns a uniformly chosen index weighted by weights. Weights
// must be non-negative and not all zero.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("stats: Choice with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n indices in place via swap (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
