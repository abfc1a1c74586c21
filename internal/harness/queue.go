package harness

import (
	"math"
	"runtime"
	"sync"
	"time"

	"next700/internal/xrand"
)

// arrivalQueue is the open-loop arrival buffer with a pluggable discipline.
// The default is the classic bounded FIFO. Two overload disciplines can be
// layered on, both standard results from datacenter queueing practice:
//
//   - Adaptive LIFO (lifoAge > 0): while the queue is congested — the
//     oldest waiting arrival is older than lifoAge — workers serve
//     newest-first. Under sustained overload a FIFO serves every entry
//     right at the age-out edge and goodput collapses to zero even though
//     the engine is saturated with work; LIFO serves fresh arrivals that
//     can still meet their deadline and lets the stale ones age out
//     unexecuted. When the queue drains below the threshold the discipline
//     reverts to FIFO, so an uncongested run is byte-for-byte unchanged.
//
//   - CoDel-style age dropping at enqueue (codelTarget > 0): the queue
//     tracks how long the head has continuously exceeded the target age;
//     once that persists for a full interval it enters a dropping state and
//     evicts the head at enqueue time, at the CoDel control-law rate
//     (interval / sqrt(drops)), until the head age dips back under the
//     target. Dropping at enqueue means a doomed arrival is shed before a
//     worker spends scheduling work on it — the difference between
//     shedding in the queue and shedding in the engine is the shed work
//     per good commit.
//
// All methods taking an explicit now are deterministic and unit-testable;
// next wraps them with the real clock.
type arrivalQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []int64 // arrival timestamps (UnixNano); buf[head:] is the queue, oldest first
	head   int
	cap    int
	closed bool

	lifoAge       time.Duration
	codelTarget   time.Duration
	codelInterval time.Duration

	// CoDel state machine.
	firstAbove int64 // when the head age first stayed above target (0 = below)
	dropping   bool
	dropNext   int64
	dropCount  int

	// Discipline accounting.
	dropped  uint64 // CoDel evictions at enqueue
	overflow uint64 // bounded-capacity rejections
	lifoPops uint64 // pops served newest-first
}

func newArrivalQueue(capacity int, lifoAge, codelTarget, codelInterval time.Duration) *arrivalQueue {
	if codelTarget > 0 && codelInterval <= 0 {
		codelInterval = 100 * time.Millisecond // the CoDel paper's default RTT-scale window
	}
	q := &arrivalQueue{
		cap:           capacity,
		lifoAge:       lifoAge,
		codelTarget:   codelTarget,
		codelInterval: codelInterval,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *arrivalQueue) size() int { return len(q.buf) - q.head }

// pushAt offers one arrival at time now. CoDel evictions happen here, on
// the oldest entries, before the capacity check.
func (q *arrivalQueue) pushAt(ts, now int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if q.codelTarget > 0 {
		q.codelDrop(now)
	}
	if q.size() >= q.cap {
		q.overflow++
		return
	}
	q.buf = append(q.buf, ts)
	q.cond.Signal()
}

// codelDrop runs the CoDel control law against the head age, with q.mu
// held: persistent congestion (head older than target for a whole
// interval) starts evicting the head at interval/sqrt(n) spacing until the
// head age falls back under the target.
func (q *arrivalQueue) codelDrop(now int64) {
	for {
		if q.size() == 0 || now-q.buf[q.head] < int64(q.codelTarget) {
			q.firstAbove = 0
			q.dropping = false
			return
		}
		if q.firstAbove == 0 {
			q.firstAbove = now + int64(q.codelInterval)
			return
		}
		if !q.dropping {
			if now < q.firstAbove {
				return
			}
			q.dropping = true
			q.dropCount = 0
			q.dropNext = now
		}
		if now < q.dropNext {
			return
		}
		q.takeHead()
		q.dropped++
		q.dropCount++
		// Advance from the previous schedule, not from now: when enqueues
		// are sparse relative to the drop spacing the law catches up with a
		// batch of evictions, exactly as CoDel's estimator does.
		q.dropNext += int64(float64(q.codelInterval) / math.Sqrt(float64(q.dropCount)))
	}
}

func (q *arrivalQueue) takeHead() int64 {
	ts := q.buf[q.head]
	q.head++
	if q.head > len(q.buf)/2 && q.head > 64 {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return ts
}

func (q *arrivalQueue) takeTail() int64 {
	ts := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	return ts
}

// popAt takes one arrival at time now without blocking. The second result
// is false when nothing is queued or the queue is closed — a closed queue
// stops serving immediately; whatever remains is backlog, exactly like the
// undrained channel buffer the queue replaced.
func (q *arrivalQueue) popAt(now int64) (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked(now)
}

func (q *arrivalQueue) popLocked(now int64) (int64, bool) {
	if q.closed || q.size() == 0 {
		return 0, false
	}
	if q.lifoAge > 0 && q.size() > 1 && now-q.buf[q.head] >= int64(q.lifoAge) {
		q.lifoPops++
		return q.takeTail(), true
	}
	return q.takeHead(), true
}

// next is the queue as an arrival source: it blocks until an arrival is
// available and returns its stamp with the clock reading that served it.
// ok is false once the queue has closed. A caller that must be back by a
// given time passes it as until (0 = no bound): when the clock gets there
// first, next returns at == 0. The bounded wait polls — a sleep while the
// bound is more than 2ms away (the OS timer oversleeps anything shorter), a
// yield after that — so it costs no timer per arrival.
func (q *arrivalQueue) next(until int64) (at, now int64, ok bool) {
	q.mu.Lock()
	for {
		if q.closed {
			q.mu.Unlock()
			return 0, 0, false
		}
		now = time.Now().UnixNano()
		if q.size() > 0 {
			at, _ = q.popLocked(now)
			q.mu.Unlock()
			return at, now, true
		}
		if until == 0 {
			q.cond.Wait()
			continue
		}
		q.mu.Unlock()
		if now >= until {
			return 0, now, true
		}
		if d := time.Duration(until - now); d > 2*time.Millisecond {
			time.Sleep(d)
		} else {
			runtime.Gosched()
		}
		q.mu.Lock()
	}
}

// close stops the queue: blocked and future pops return false immediately.
func (q *arrivalQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// stats returns (remaining, codel-dropped, overflow, lifo-served).
func (q *arrivalQueue) stats() (remaining int, dropped, overflow, lifoPops uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size(), q.dropped, q.overflow, q.lifoPops
}

// maxArrivalQueue bounds the arrival queue: past this many undrained
// arrivals the generator counts drops into the backlog instead of buffering
// — the run is already deep in collapse territory by then and the exact
// queue contents no longer change the story.
const maxArrivalQueue = 1 << 20

// poissonGap draws one exponential inter-arrival time at rate per second.
func poissonGap(rng *xrand.RNG, rate float64) time.Duration {
	u := rng.Float64()
	if u > 0.999999 {
		u = 0.999999
	}
	return time.Duration(-math.Log(1-u) / rate * float64(time.Second))
}

// generate is the open-loop arrival process, the same one whatever executes
// the arrivals: exponential gaps from a seeded RNG make the offered process
// Poisson and the run replayable. It feeds q until stop closes, then closes q
// (so blocked workers wake and whatever is still queued counts as backlog)
// and returns how many arrivals it offered. Sleeps under ~2ms are skipped
// (the OS timer would oversleep them), so high rates arrive in
// millisecond-scale bursts — far below the latency scales being measured.
func generate(q *arrivalQueue, rate float64, seed uint64, stop <-chan struct{}) (generated uint64) {
	defer q.close()
	rng := xrand.New(seed*9_176_867 + 0xfeed)
	// One reusable timer, armed and drained here: a time.After per sleep
	// would be charged to the window MeasureAllocs brackets.
	sleep := time.NewTimer(0)
	defer sleep.Stop()
	<-sleep.C
	next := time.Now()
	for {
		select {
		case <-stop:
			return generated
		default:
		}
		next = next.Add(poissonGap(rng, rate))
		if d := time.Until(next); d > 2*time.Millisecond {
			sleep.Reset(d)
			select {
			case <-stop:
				return generated
			case <-sleep.C:
			}
		}
		generated++
		q.pushAt(next.UnixNano(), time.Now().UnixNano())
	}
}
