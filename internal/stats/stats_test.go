package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"next700/internal/xrand"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1234)
	if h.Count() != 1 || h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("bad single-value stats: %+v", h.Summarize())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if v := h.Percentile(p); v != 1234 {
			t.Fatalf("p%v = %d, want 1234", p, v)
		}
	}
	if h.Mean() != 1234 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative not clamped")
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 97 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucket not monotonic at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestBucketLowInverse(t *testing.T) {
	inverse := func(v int64) bool {
		idx := bucketOf(v)
		lo := bucketLow(idx)
		// lo must be <= v and map to the same bucket.
		return lo <= v && bucketOf(lo) == idx
	}
	err := quick.Check(func(raw uint32) bool { return inverse(int64(raw)) }, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Each power of two and its neighbours: where the highest set bit, and
	// with it the bucket, changes.
	for k := 0; k < 63; k++ {
		for _, v := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			if !inverse(v) {
				t.Fatalf("bucketLow(bucketOf(%d)) = %d is not the low end of its bucket", v, bucketLow(bucketOf(v)))
			}
		}
	}
}

func TestPercentileAccuracy(t *testing.T) {
	// Record uniform values and check percentile error bound (~7%).
	h := NewHistogram()
	rng := xrand.New(1)
	const n = 200000
	for i := 0; i < n; i++ {
		h.Record(int64(rng.Uint64n(1_000_000)))
	}
	for _, p := range []float64{10, 50, 90, 99} {
		got := float64(h.Percentile(p))
		want := p / 100 * 1_000_000
		if math.Abs(got-want)/want > 0.08 {
			t.Fatalf("p%v = %v, want ~%v", p, got, want)
		}
	}
}

func TestPercentileOrdering(t *testing.T) {
	h := NewHistogram()
	rng := xrand.New(2)
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Uint64n(1 << 30)))
	}
	prev := int64(-1)
	for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotone at p%v: %d < %d", p, v, prev)
		}
		prev = v
	}
	if h.Percentile(100) != h.Max() || h.Percentile(0) != h.Min() {
		t.Fatal("extreme percentiles must equal min/max")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	rng := xrand.New(3)
	for i := 0; i < 5000; i++ {
		v := int64(rng.Uint64n(1 << 22))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge mismatch: %+v vs %+v", a.Summarize(), all.Summarize())
	}
	if a.Percentile(50) != all.Percentile(50) {
		t.Fatal("merged median differs from combined")
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-6 {
		t.Fatal("merged mean differs")
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	b.Record(7)
	b.Record(1000)
	a.Merge(b)
	if a.Min() != 7 || a.Max() != 1000 || a.Count() != 2 {
		t.Fatalf("merge into empty: %+v", a.Summarize())
	}
}

func TestRecordDuration(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Millisecond)
	if h.Max() != int64(3*time.Millisecond) {
		t.Fatal("duration not recorded in ns")
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 1000)
	}
	s := h.Summarize().String()
	if !strings.Contains(s, "n=100") {
		t.Fatalf("summary string missing count: %s", s)
	}
}

func TestCounter(t *testing.T) {
	var a, b Counter
	a.Commits, a.Aborts, a.Reads = 10, 5, 100
	b.Commits, b.Aborts, b.Writes, b.Waits = 2, 1, 7, 3
	a.Add(&b)
	if a.Commits != 12 || a.Aborts != 6 || a.Reads != 100 || a.Writes != 7 || a.Waits != 3 {
		t.Fatalf("counter add wrong: %+v", a)
	}
	if got := a.AbortRate(); math.Abs(got-6.0/18.0) > 1e-9 {
		t.Fatalf("abort rate %v", got)
	}
	var empty Counter
	if empty.AbortRate() != 0 {
		t.Fatal("empty abort rate must be 0")
	}
	// Sub undoes Add on every field (the unkeyed literal stops compiling when
	// a field is added, which is when Add and Sub need the new line too).
	full := Counter{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	sum := full
	sum.Add(&full)
	sum.Sub(&full)
	if sum != full {
		t.Fatalf("counter sub is not the inverse of add: %+v", sum)
	}
}

func TestHistogramLargeValues(t *testing.T) {
	h := NewHistogram()
	big := int64(1) << 39
	h.Record(big)
	if h.Max() != big {
		t.Fatal("large value lost")
	}
	if p := h.Percentile(99); p != big {
		t.Fatalf("p99 of single large value: %d", p)
	}
}
