// Package admission implements overload protection in front of the engine:
// a bounded in-flight concurrency limit (semaphore) with queue-deadline
// shedding, and an optional AIMD (additive-increase / multiplicative-
// decrease) adaptive limit driven by measured commit latency.
//
// The controller sits between the load-generating layer (harness, bench
// CLI, a future network front end) and Engine: every transaction Acquires a
// slot before executing and Releases it after, reporting its service
// latency. Under offered load beyond capacity the controller keeps the
// number of transactions inside the engine bounded — so the work the engine
// does is always fresh work — and sheds the excess quickly instead of
// queueing it into uselessness. That is the difference between goodput that
// tracks capacity and the classic open-loop latency collapse.
//
// Shedding is deliberately cheap: a shed transaction costs one mutex
// acquisition and no engine state, which is what lets the engine survive
// offered loads many multiples past saturation.
package admission

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrShed is returned by Acquire when the transaction is rejected — its
// admission wait hit the queue deadline (or the transaction's own
// deadline). Shed transactions never touched the engine; callers account
// them as ShedAborts.
var ErrShed = errors.New("admission: shed by admission control")

// Config parameterizes a Controller. The zero value of optional fields
// selects the documented defaults.
type Config struct {
	// MaxInFlight is the hard ceiling on concurrently admitted
	// transactions (the semaphore size, and the AIMD upper bound).
	// <= 0 selects 2 × GOMAXPROCS.
	MaxInFlight int
	// MaxQueueWait bounds how long Acquire may wait for a slot before
	// shedding. 0 means the wait is bounded only by the transaction's own
	// deadline (and is unbounded when that is zero too).
	MaxQueueWait time.Duration

	// TargetLatency enables the AIMD adaptive limit: while the EWMA of
	// reported transaction latencies exceeds the target, the limit decays
	// multiplicatively (× aimdDecrease) toward 1; while it is at or under
	// the target, the limit recovers additively (+1) toward MaxInFlight.
	// The limit moves at most once per max(2 × TargetLatency, 1ms), so one
	// burst of samples cannot collapse it in a single tick. 0 keeps the
	// limit fixed at MaxInFlight.
	TargetLatency time.Duration
}

const (
	// ewmaAlpha is the smoothing factor of the latency EWMA: ~5-sample
	// memory, quick enough to track an overload onset within a handful of
	// commits.
	ewmaAlpha = 0.2
	// aimdDecrease is the multiplicative decrease applied to the limit
	// while latency is over target.
	aimdDecrease = 0.7
)

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats is a point-in-time snapshot of a Controller.
type Stats struct {
	// Admitted and Shed count Acquire outcomes since construction.
	Admitted uint64
	Shed     uint64
	// InFlight is the number of currently admitted transactions.
	InFlight int
	// Limit is the current concurrency limit (== MaxInFlight when AIMD is
	// off).
	Limit int
	// LatencyEWMA is the current latency estimate driving AIMD (0 when
	// AIMD is off or no sample has been reported).
	LatencyEWMA time.Duration
}

// Controller is the admission gate. It is safe for concurrent use by any
// number of goroutines.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	limit    int
	inFlight int
	admitted uint64
	shed     uint64

	adjustEvery int64   // minimum ns between limit adjustments
	ewma        float64 // nanoseconds
	lastAdjust  int64   // Unix nanoseconds of the last limit adjustment
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	cfg = cfg.normalized()
	c := &Controller{
		cfg: cfg, limit: cfg.MaxInFlight,
		adjustEvery: int64(max(2*cfg.TargetLatency, time.Millisecond)),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Acquire admits the caller or sheds it. deadline is the transaction's own
// absolute deadline in Unix nanoseconds (0 = none); the effective admission
// deadline is the earlier of it and now + MaxQueueWait. On success the
// caller owns one in-flight slot and must Release it exactly once.
func (c *Controller) Acquire(deadline int64) error {
	if q := c.cfg.MaxQueueWait; q > 0 {
		qdl := time.Now().UnixNano() + int64(q)
		if deadline == 0 || qdl < deadline {
			deadline = qdl
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inFlight < c.limit {
		c.inFlight++
		c.admitted++
		return nil
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for c.inFlight >= c.limit {
		if deadline != 0 {
			remaining := deadline - time.Now().UnixNano()
			if remaining <= 0 {
				c.shed++
				return ErrShed
			}
			if timer == nil {
				// One timer per blocked Acquire wakes the whole queue at
				// this waiter's deadline; co-waiters re-check their own
				// deadlines and park again. Spurious wakeups are cheap,
				// stranded waiters are not.
				timer = time.AfterFunc(time.Duration(remaining), func() {
					c.mu.Lock()
					c.cond.Broadcast()
					c.mu.Unlock()
				})
			}
		}
		c.cond.Wait()
	}
	c.inFlight++
	c.admitted++
	return nil
}

// Release returns an admitted slot. latency is the transaction's measured
// service latency (queue excluded), fed to the AIMD limit; pass 0 to skip
// the sample (e.g. for shed-adjacent bookkeeping).
func (c *Controller) Release(latency time.Duration) {
	c.mu.Lock()
	c.inFlight--
	if c.cfg.TargetLatency > 0 && latency > 0 {
		c.observe(latency)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// observe folds one latency sample into the EWMA and, at most once per
// adjustEvery, moves the limit: multiplicative decrease over target,
// additive increase at or under it. Called with c.mu held.
func (c *Controller) observe(latency time.Duration) {
	l := float64(latency)
	if c.ewma == 0 {
		c.ewma = l
	} else {
		c.ewma = (1-ewmaAlpha)*c.ewma + ewmaAlpha*l
	}
	now := time.Now().UnixNano()
	if now-c.lastAdjust < c.adjustEvery {
		return
	}
	c.lastAdjust = now
	if c.ewma > float64(c.cfg.TargetLatency) {
		c.limit = max(int(float64(c.limit)*aimdDecrease), 1)
	} else if c.limit < c.cfg.MaxInFlight {
		c.limit++
	}
}

// Limit returns the current concurrency limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Snapshot returns current counters and state.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Admitted:    c.admitted,
		Shed:        c.shed,
		InFlight:    c.inFlight,
		Limit:       c.limit,
		LatencyEWMA: time.Duration(c.ewma),
	}
}
