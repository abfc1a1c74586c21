// Package xrand provides deterministic, allocation-free random number
// generation for workload drivers and simulators.
//
// Every worker thread in the engine and every simulated core owns a private
// *RNG so that experiment runs are reproducible given a seed, independent of
// goroutine scheduling. The package also implements the skewed distributions
// used by the standard OLTP benchmarks: the Zipfian generator of Gray et al.
// ("Quickly Generating Billion-Record Synthetic Databases", SIGMOD'94) used
// by YCSB, and the NURand non-uniform generator mandated by the TPC-C
// specification.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a splitmix64/xorshift-style pseudo random generator. It is not
// cryptographically secure; it is fast, deterministic, and has a full 2^64
// period, which is what benchmark drivers need.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed. A zero seed is remapped to a fixed
// non-zero constant so the generator never degenerates.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.state = seed
	// Warm up so that close seeds diverge quickly.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
}

// Uint64 returns the next pseudo-random 64-bit value (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform int in [lo, hi] inclusive, per the TPC-C
// convention for rand(x..y).
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm fills out with a pseudo-random permutation of [0, len(out)).
func (r *RNG) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Letters fills buf with uppercase letters, as used by benchmark string
// columns, and returns buf.
func (r *RNG) Letters(buf []byte) []byte {
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for i := range buf {
		buf[i] = alpha[r.Intn(len(alpha))]
	}
	return buf
}

// AString fills buf[:n] with random alphanumeric characters where n is
// uniform in [lo, hi], per TPC-C a-string semantics. It returns the filled
// prefix.
func (r *RNG) AString(buf []byte, lo, hi int) []byte {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := r.IntRange(lo, hi)
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = alnum[r.Intn(len(alnum))]
	}
	return buf[:n]
}

// NString fills buf[:n] with random digits where n is uniform in [lo, hi],
// per TPC-C n-string semantics.
func (r *RNG) NString(buf []byte, lo, hi int) []byte {
	n := r.IntRange(lo, hi)
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = byte('0' + r.Intn(10))
	}
	return buf[:n]
}

// Zipf generates Zipfian-distributed values in [0, n) using the algorithm of
// Gray et al. (SIGMOD'94), the same generator YCSB uses. theta in [0, 1)
// controls skew: 0 is uniform, 0.99 is the YCSB "hotspot" default where a
// handful of items absorb most accesses.
//
// A draw of rank >= 2 is the truncation of n*math.Pow(x, alpha), with
// x = eta*u - eta + 1 and alpha = 1/(1-theta); every seeded workload and
// state digest is pinned to those values. When 2*alpha lies within 1e-12 of
// an integer m <= 2048 (theta = 0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 0.98, 0.99,
// ...), Next computes p = x^(m/2) without math.Pow instead: x^floor(m/2) by
// square-and-multiply, times the correctly rounded math.Sqrt(x) when m is
// odd. For x >= 1e-6, p is within 2e-11 of the exact x^alpha, relative:
// the products and the square root err by at most (m/2 + 1)*2^-53 < 1.2e-13,
// and alpha - m/2 = d with |d| < 1e-12 leaves the factor
// x^d = exp(d*ln x), |d*ln x| < 1.4e-11. math.Pow is within the same order
// of x^alpha (its own square-and-multiply, then Exp(f*Log x) with |f| <= 0.5),
// and each product by n rounds once more. So when t = n*p has
// floor(t*(1-1e-9)) == floor(t*(1+1e-9)) >= 1, that integer is math.Pow's
// truncation; the low end >= 1 also keeps p >= 2^-65, so no step
// underflowed. Every other draw evaluates the math.Pow expression on the
// same x: the band straddles an integer (about 8e-5 of rank >= 2 draws at
// theta 0.9 over 262 144 keys), x < 1e-6, or alpha does not qualify
// (theta = 0.4).
// The draws are therefore bit-identical to math.Pow's by construction;
// TestZipfMatchesPow checks them against it.
type Zipf struct {
	rng   *RNG
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // zeta(2, theta)
	// one is the bound on u*zetan below which a draw is rank 1:
	// 1 + 0.5^theta, computed once rather than on every draw.
	one float64
	// twoAlpha is m when 2*alpha is within 1e-12 of the integer m <= 2048,
	// else 0: the exponent Next can raise x to without math.Pow.
	twoAlpha uint64
}

// NewZipf constructs a Zipfian generator over [0, n) with skew theta.
// theta must be in [0, 1); n must be > 0.
func NewZipf(rng *RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("xrand: NewZipf with n == 0")
	}
	if theta < 0 || theta >= 1 {
		panic("xrand: NewZipf theta out of [0,1)")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.half = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.one = 1.0 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	if m := math.Round(2 * z.alpha); m <= 2048 && math.Abs(z.alpha-m/2) < 1e-12 {
		z.twoAlpha = uint64(m)
	}
	return z
}

// N returns the size of the generator's domain.
func (z *Zipf) N() uint64 { return z.n }

// Theta returns the skew parameter.
func (z *Zipf) Theta() float64 { return z.theta }

// Next returns the next Zipfian value in [0, n). Rank 0 is the most popular
// item.
func (z *Zipf) Next() uint64 {
	if z.theta == 0 {
		return z.rng.Uint64n(z.n)
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.one {
		return 1
	}
	// One x for both paths, so a fused multiply-add cannot split them.
	x := z.eta*u - z.eta + 1
	// twoAlpha is tested here rather than in scaledPow so that a generator
	// left on math.Pow (theta = 0.4) pays no call.
	v, ok := uint64(0), false
	if z.twoAlpha != 0 {
		v, ok = z.scaledPow(x)
	}
	if !ok {
		v = uint64(float64(z.n) * math.Pow(x, z.alpha))
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// scaledPow returns uint64(n * math.Pow(x, alpha)) and true when the guard
// band in Zipf's comment proves the square-and-multiply value equal to it,
// and false when the caller must evaluate math.Pow. z.twoAlpha must be
// nonzero.
func (z *Zipf) scaledPow(x float64) (uint64, bool) {
	if x < 1e-6 {
		return 0, false
	}
	p := 1.0
	if z.twoAlpha&1 != 0 {
		p = math.Sqrt(x)
	}
	for e := z.twoAlpha >> 1; ; {
		if e&1 != 0 {
			p *= x
		}
		if e >>= 1; e == 0 {
			break
		}
		x *= x
	}
	t := float64(z.n) * p
	lo, hi := t*(1-1e-9), t*(1+1e-9)
	if lo < 1 || uint64(lo) != uint64(hi) {
		return 0, false
	}
	return uint64(lo), true
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// For the sizes used in benchmarks (<= tens of millions) the direct sum is
// fine and is computed once per generator.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// NURand implements the TPC-C non-uniform random function
// NURand(A, x, y) = (((rand(0..A) | rand(x..y)) + C) % (y - x + 1)) + x.
type NURand struct {
	rng *RNG
	// C constants per TPC-C clause 2.1.6; fixed at construction so a load
	// and its run phase agree.
	CLast, CID, OLID int
}

// NewNURand builds a NURand helper with randomly drawn C constants that
// satisfy the TPC-C validity rules.
func NewNURand(rng *RNG) *NURand {
	return &NURand{
		rng:   rng,
		CLast: rng.IntRange(0, 255),
		CID:   rng.IntRange(0, 1023),
		OLID:  rng.IntRange(0, 8191),
	}
}

func (nu *NURand) nurand(a, c, x, y int) int {
	return (((nu.rng.IntRange(0, a) | nu.rng.IntRange(x, y)) + c) % (y - x + 1)) + x
}

// CustomerID draws a customer id in [1, 3000] per TPC-C.
func (nu *NURand) CustomerID() int { return nu.nurand(1023, nu.CID, 1, 3000) }

// ItemID draws an item id in [1, 100000] per TPC-C.
func (nu *NURand) ItemID() int { return nu.nurand(8191, nu.OLID, 1, 100000) }

// LastNameIndex draws a last-name seed in [0, 999] for the run phase.
func (nu *NURand) LastNameIndex() int { return nu.nurand(255, nu.CLast, 0, 999) }

// LastName renders the TPC-C syllable-composed last name for num in [0,999]
// into buf and returns the filled prefix.
func LastName(buf []byte, num int) []byte {
	syllables := [...]string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
	b := buf[:0]
	b = append(b, syllables[(num/100)%10]...)
	b = append(b, syllables[(num/10)%10]...)
	b = append(b, syllables[num%10]...)
	return b
}
