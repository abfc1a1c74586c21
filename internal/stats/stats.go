// Package stats collects throughput and latency measurements for the engine
// and the simulator.
//
// Latency is recorded in a log-bucketed histogram (HDR-histogram style):
// constant-time inserts, bounded memory, and ~4% relative error on reported
// percentiles, which is ample for tail-latency experiments. Histograms are
// intentionally not thread-safe; each worker owns one and they are merged at
// the end of a run, which keeps the record path free of shared-cache traffic.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
	"unsafe"
)

// subBuckets is the number of linear sub-buckets per power-of-two bucket.
// 16 sub-buckets bound relative error at 1/16 ≈ 6.25% worst case, ~3% mean.
const subBuckets = 16

// maxBuckets covers values up to 2^40 (≈ 18 minutes in nanoseconds), far
// beyond any transaction latency we measure.
const maxBuckets = 40

// Histogram is a log-bucketed value histogram. The zero value is ready to
// use. Values are recorded as int64 (typically nanoseconds or simulated
// cycles); negative values are clamped to zero.
type Histogram struct {
	counts [maxBuckets * subBuckets]uint64
	n      uint64
	sum    float64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Position of the highest set bit determines the power-of-two bucket;
	// the next log2(subBuckets) bits pick the sub-bucket.
	hi := 63 - bits.LeadingZeros64(uint64(v))
	shift := hi - 4 // log2(subBuckets)
	idx := (hi-3)*subBuckets + int((uint64(v)>>uint(shift))&(subBuckets-1))
	if idx >= len([maxBuckets * subBuckets]uint64{}) {
		idx = maxBuckets*subBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value that maps to bucket idx; used to
// reconstruct percentile values.
func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	hi := idx/subBuckets + 3
	sub := idx % subBuckets
	shift := hi - 4
	return (1 << uint(hi)) | int64(sub)<<uint(shift)
}

// Record adds a single observation.
//
//next700:hotpath
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 {
		h.min = v
		h.max = v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
}

// RecordDuration adds a duration observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 {
		h.min = other.min
		h.max = other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Percentile returns an approximation of the p-th percentile (p in [0,100]).
// The exact min and max are returned at the extremes.
func (h *Histogram) Percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := uint64(math.Ceil(float64(h.n) * p / 100.0))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Summary holds the standard latency digest reported by experiments.
type Summary struct {
	Count         uint64
	Mean          float64
	Min, Max      int64
	P50, P90, P99 int64
	P999          int64
}

// Summarize computes the standard digest.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.n,
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// String renders the digest with duration formatting.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s p99.9=%s max=%s",
		s.Count,
		time.Duration(s.Mean).Round(time.Microsecond),
		time.Duration(s.P50), time.Duration(s.P90),
		time.Duration(s.P99), time.Duration(s.P999), time.Duration(s.Max))
}

// Counter is a plain accumulating counter for per-worker bookkeeping. It is
// not thread-safe by design: one per worker, merged at the end.
type Counter struct {
	Commits uint64
	// Aborts counts transient (conflict) aborts: attempts the retry loop
	// rolled back and re-executed. The non-retried classes are accounted
	// separately below so runs can tell contention from failure.
	Aborts      uint64
	UserAborts  uint64 // aborts requested by the transaction body itself
	FatalAborts uint64 // non-retryable failures surfaced through Run (log death, application errors)
	// DeadlineAborts counts transactions terminated because their deadline
	// expired — while queued, blocked on a lock or durability wait, or in
	// retry backoff — without committing.
	DeadlineAborts uint64
	// ShedAborts counts transactions rejected by admission control before
	// execution (queue-deadline or concurrency-limit shedding).
	ShedAborts uint64
	// PartitionAborts counts transactions terminally aborted because they
	// touched a quarantined partition (core.ErrPartitionUnavailable) while
	// the engine degraded around a partition fault.
	PartitionAborts uint64
	Reads           uint64
	Writes          uint64
	Inserts         uint64
	Deletes         uint64
	Scans           uint64
	Waits           uint64 // lock waits observed
}

// Add merges other into c.
func (c *Counter) Add(other *Counter) {
	c.Commits += other.Commits
	c.Aborts += other.Aborts
	c.UserAborts += other.UserAborts
	c.FatalAborts += other.FatalAborts
	c.DeadlineAborts += other.DeadlineAborts
	c.ShedAborts += other.ShedAborts
	c.PartitionAborts += other.PartitionAborts
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.Inserts += other.Inserts
	c.Deletes += other.Deletes
	c.Scans += other.Scans
	c.Waits += other.Waits
}

// Sub removes other from c: with other a snapshot taken earlier from the same
// accumulating counter, c becomes what was counted since.
func (c *Counter) Sub(other *Counter) {
	c.Commits -= other.Commits
	c.Aborts -= other.Aborts
	c.UserAborts -= other.UserAborts
	c.FatalAborts -= other.FatalAborts
	c.DeadlineAborts -= other.DeadlineAborts
	c.ShedAborts -= other.ShedAborts
	c.PartitionAborts -= other.PartitionAborts
	c.Reads -= other.Reads
	c.Writes -= other.Writes
	c.Inserts -= other.Inserts
	c.Deletes -= other.Deletes
	c.Scans -= other.Scans
	c.Waits -= other.Waits
}

// AbortRate returns aborts per attempted transaction (aborts may exceed
// commits under heavy contention because a transaction can abort many times
// before committing).
func (c *Counter) AbortRate() float64 {
	attempts := c.Commits + c.Aborts
	if attempts == 0 {
		return 0
	}
	return float64(c.Aborts) / float64(attempts)
}

// counterAlign pads each per-worker counter slot out to a multiple of 128
// bytes: two cache lines, so the adjacent-line prefetcher cannot induce
// false sharing between neighboring workers either.
const counterAlign = 128

// counterPad is the padding needed to round Counter up to counterAlign.
const counterPad = (counterAlign - unsafe.Sizeof(Counter{})%counterAlign) % counterAlign

// paddedCounter is a Counter that owns its cache lines.
type paddedCounter struct {
	Counter
	_ [counterPad]byte
}

// A compile-time check that paddedCounter is a whole number of counterAlign
// blocks: any other remainder makes the negated length overflow uintptr, and
// the build fails.
var _ [-(unsafe.Sizeof(paddedCounter{}) % counterAlign)]struct{}

// CounterSet is a fixed array of cache-line-padded per-worker counters.
// Each worker increments only its own slot (no atomics, no shared lines on
// the transaction hot path); totals are aggregated only at report time.
type CounterSet struct {
	slots []paddedCounter
}

// NewCounterSet creates a set with n padded slots (min 1).
func NewCounterSet(n int) *CounterSet {
	if n < 1 {
		n = 1
	}
	return &CounterSet{slots: make([]paddedCounter, n)}
}

// Len returns the number of slots.
func (s *CounterSet) Len() int { return len(s.slots) }

// Slot returns worker i's counter. The slot is not thread-safe; it must be
// incremented only by the worker that owns it.
//
//next700:hotpath
func (s *CounterSet) Slot(i int) *Counter {
	return &s.slots[i].Counter
}

// Total aggregates all slots. Safe to call from a coordinator while workers
// run, with the usual torn-read caveat of unsynchronized counters: totals
// are exact only after the workers have stopped.
func (s *CounterSet) Total() Counter {
	var total Counter
	for i := range s.slots {
		total.Add(&s.slots[i].Counter)
	}
	return total
}

// Reset zeroes every slot.
func (s *CounterSet) Reset() {
	for i := range s.slots {
		s.slots[i].Counter = Counter{}
	}
}
