package xrand

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d equal values out of 1000", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed degenerated")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	err := quick.Check(func(n uint64) bool {
		n = n%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %f", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) returned %d", v)
		}
	}
	if v := r.IntRange(4, 4); v != 4 {
		t.Fatalf("degenerate range returned %d", v)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	out := make([]int, 64)
	r.Perm(out)
	seen := make(map[int]bool)
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(13)
	for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
		z := NewZipf(r, 1000, theta)
		for i := 0; i < 10000; i++ {
			if v := z.Next(); v >= 1000 {
				t.Fatalf("theta=%v produced out-of-range %d", theta, v)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(17)
	const n, draws = 1000, 200000

	freqTop10 := func(theta float64) float64 {
		z := NewZipf(r, n, theta)
		hits := 0
		for i := 0; i < draws; i++ {
			if z.Next() < 10 {
				hits++
			}
		}
		return float64(hits) / draws
	}

	uniform := freqTop10(0)
	skewed := freqTop10(0.99)
	if uniform > 0.02 {
		t.Fatalf("uniform top-10 frequency too high: %v", uniform)
	}
	// With theta=0.99 over 1000 items the top 10 should absorb a large
	// fraction of accesses (analytically ~0.45).
	if skewed < 0.3 {
		t.Fatalf("zipf top-10 frequency too low for theta=0.99: %v", skewed)
	}
	if skewed < uniform*5 {
		t.Fatalf("zipf skew not materializing: uniform=%v skewed=%v", uniform, skewed)
	}
}

func TestZipfMostPopularIsRankZero(t *testing.T) {
	r := New(19)
	z := NewZipf(r, 100, 0.9)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	max := 0
	for i, c := range counts {
		if c > counts[max] {
			max = i
		}
	}
	if max != 0 {
		t.Fatalf("most popular rank is %d, want 0", max)
	}
}

// TestZipfDrawsPinned pins the first 1 000 draws of a theta = 0.9
// generator over the YCSB table size: an FNV-1a digest of all of them and
// the first 24 verbatim. Every seeded workload and the det_batch state
// digest sit on these draws, so an edit to Next or NewZipf must keep them
// bit-identical. (Values as computed on amd64; an architecture that fuses
// multiply-adds may round differently.)
func TestZipfDrawsPinned(t *testing.T) {
	z := NewZipf(New(42), 262144, 0.9)
	wantFirst := []uint64{0, 94405, 49, 53528, 335, 9666, 38, 2439, 3092, 3336, 15424, 37,
		5, 2512, 4, 19412, 190456, 2, 7968, 9799, 2, 131, 31829, 46930}
	const wantDigest = 0xc35d776d4390b4ea
	digest := uint64(14695981039346656037)
	for i := 0; i < 1000; i++ {
		v := z.Next()
		if i < len(wantFirst) && v != wantFirst[i] {
			t.Fatalf("draw %d = %d, want %d", i, v, wantFirst[i])
		}
		digest ^= v
		digest *= 1099511628211
	}
	if digest != wantDigest {
		t.Fatalf("digest of 1000 draws = %#x, want %#x", digest, uint64(wantDigest))
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for _, f := range []func(){
		func() { NewZipf(r, 0, 0.5) },
		func() { NewZipf(r, 10, 1.0) },
		func() { NewZipf(r, 10, -0.1) },
		func() { r.Uint64n(0) },
		func() { r.IntRange(3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNURandRanges(t *testing.T) {
	nu := NewNURand(New(23))
	for i := 0; i < 10000; i++ {
		if v := nu.CustomerID(); v < 1 || v > 3000 {
			t.Fatalf("CustomerID out of range: %d", v)
		}
		if v := nu.ItemID(); v < 1 || v > 100000 {
			t.Fatalf("ItemID out of range: %d", v)
		}
		if v := nu.LastNameIndex(); v < 0 || v > 999 {
			t.Fatalf("LastNameIndex out of range: %d", v)
		}
	}
}

func TestNURandNonUniform(t *testing.T) {
	// NURand customer ids should be visibly non-uniform: the C-offset OR
	// construction concentrates mass on some ids.
	nu := NewNURand(New(29))
	counts := make(map[int]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[nu.CustomerID()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 3*float64(draws)/3000 {
		t.Fatalf("NURand looks uniform: max bucket %d", max)
	}
}

func TestLastName(t *testing.T) {
	buf := make([]byte, 24)
	cases := map[int]string{
		0:   "BARBARBAR",
		1:   "BARBAROUGHT",
		999: "EINGEINGEING",
		371: "PRICALLYOUGHT",
	}
	for num, want := range cases {
		if got := string(LastName(buf, num)); got != want {
			t.Errorf("LastName(%d) = %q, want %q", num, got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	r := New(31)
	buf := make([]byte, 32)
	for i := 0; i < 1000; i++ {
		s := r.AString(buf, 8, 16)
		if len(s) < 8 || len(s) > 16 {
			t.Fatalf("AString length %d", len(s))
		}
		d := r.NString(buf, 4, 4)
		if len(d) != 4 {
			t.Fatalf("NString length %d", len(d))
		}
		for _, c := range d {
			if c < '0' || c > '9' {
				t.Fatalf("NString non-digit %q", c)
			}
		}
	}
	r.Letters(buf)
	for _, c := range buf {
		if c < 'A' || c > 'Z' {
			t.Fatalf("Letters produced %q", c)
		}
	}
}

// mul64 is the portable 128-bit product Uint64n used before math/bits.Mul64:
// the reference TestMul64 holds the intrinsic to.
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

func TestMul64(t *testing.T) {
	err := quick.Check(func(x, y uint64) bool {
		hi, lo := bits.Mul64(x, y)
		wantHi, wantLo := mul64(x, y)
		return hi == wantHi && lo == wantLo
	}, &quick.Config{MaxCount: 100000})
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := mul64(math.MaxUint64, math.MaxUint64)
	if hi != math.MaxUint64-1 {
		t.Fatalf("mul64 high word wrong: %d", hi)
	}
}

// TestUint64nPinned pins an FNV-1a digest of the first 10 000 Uint64n draws
// from seed 42 per bound, taken with the portable mul64: small bounds, one
// past 2^40 and 2^63+1, where Lemire's rejection loop runs on about half the
// draws.
func TestUint64nPinned(t *testing.T) {
	for _, c := range []struct {
		n, digest uint64
	}{
		{3, 0x787b9d04d1ce3ca},
		{10, 0xec199cdfcabb1961},
		{1000, 0x306fa7993254deaa},
		{1<<40 + 7, 0x10dc73c4706dfde4},
		{1<<63 + 1, 0x8b15d3798b980040},
	} {
		r := New(42)
		digest := uint64(14695981039346656037)
		for i := 0; i < 10000; i++ {
			digest ^= r.Uint64n(c.n)
			digest *= 1099511628211
		}
		if digest != c.digest {
			t.Errorf("n=%d: digest of 10000 draws = %#x, want %#x", c.n, digest, c.digest)
		}
	}
}

// powNext is Next as it was before the square-and-multiply path, every draw
// of rank >= 2 through math.Pow: the reference TestZipfMatchesPow holds Next
// to. It also returns x for those draws (NaN for ranks 0 and 1).
func powNext(z *Zipf) (uint64, float64) {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0, math.NaN()
	}
	if uz < z.one {
		return 1, math.NaN()
	}
	x := z.eta*u - z.eta + 1
	v := uint64(float64(z.n) * math.Pow(x, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v, x
}

// TestZipfMatchesPow draws from Next and from the math.Pow reference on one
// seed over a grid of skews and domain sizes and requires every draw equal.
// On every skew whose 2*alpha is an integer it also requires the
// square-and-multiply path to have served at least 99.9 % of the rank >= 2
// draws, so a path that always fell back to math.Pow would fail.
func TestZipfMatchesPow(t *testing.T) {
	draws := 2_000_000
	if testing.Short() {
		draws = 200_000
	}
	for _, theta := range []float64{0.4, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 0.98, 0.99} {
		for _, n := range []uint64{10, 1000, 262144, 1 << 20, 999983} {
			theta, n := theta, n
			t.Run(fmt.Sprintf("theta=%v/n=%d", theta, n), func(t *testing.T) {
				t.Parallel()
				seed := uint64(n) ^ math.Float64bits(theta)
				z, ref := NewZipf(New(seed), n, theta), NewZipf(New(seed), n, theta)
				qualifies := theta != 0.4
				if got := z.twoAlpha != 0; got != qualifies {
					t.Fatalf("alpha = %v: square-and-multiply path %v, want %v", z.alpha, got, qualifies)
				}
				rank2, fast := 0, 0
				for i := 0; i < draws; i++ {
					v := z.Next()
					want, x := powNext(ref)
					if v != want {
						t.Fatalf("draw %d = %d, math.Pow gives %d (x = %v)", i, v, want, x)
					}
					if !math.IsNaN(x) {
						rank2++
						if _, ok := z.scaledPow(x); ok {
							fast++
						}
					}
				}
				if qualifies && rank2 > 0 && float64(fast) < 0.999*float64(rank2) {
					t.Fatalf("square-and-multiply served %d of %d rank >= 2 draws, want >= 99.9 %%", fast, rank2)
				}
				t.Logf("rank >= 2 draws %d, math.Pow fallbacks %d", rank2, rank2-fast)
			})
		}
	}
}

// BenchmarkZipfNext draws over the YCSB table size. theta 0.4 does not
// qualify for square-and-multiply and measures the math.Pow path.
func BenchmarkZipfNext(b *testing.B) {
	for _, theta := range []float64{0.4, 0.6, 0.9, 0.99} {
		b.Run(fmt.Sprintf("theta=%v", theta), func(b *testing.B) {
			z := NewZipf(New(1), 262144, theta)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Next()
			}
			zipfSink = sum
		})
	}
}

var zipfSink uint64
