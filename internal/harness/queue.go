package harness

import (
	"math"
	"runtime"
	"sync"
	"time"

	"next700/internal/xrand"
)

// arrivalQueue is the open-loop arrival buffer: a bounded FIFO of arrival
// stamps that workers drain through next.
type arrivalQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []int64 // arrival timestamps (UnixNano); buf[head:] is the queue, oldest first
	head   int
	cap    int
	closed bool

	overflow uint64 // bounded-capacity rejections
}

func newArrivalQueue(capacity int) *arrivalQueue {
	q := &arrivalQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *arrivalQueue) size() int { return len(q.buf) - q.head }

// push offers one arrival stamped ts; a full or closed queue refuses it.
func (q *arrivalQueue) push(ts int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if q.size() >= q.cap {
		q.overflow++
		return
	}
	q.buf = append(q.buf, ts)
	q.cond.Signal()
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

// next is the queue as an arrival source: it blocks until an arrival is
// available and returns its stamp with the clock reading that served it.
// ok is false once the queue has closed — a closed queue stops serving
// immediately; whatever remains is backlog. A caller that must be back by a
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
			at = q.takeHead()
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

// stats returns the arrivals still queued and those refused as overflow.
func (q *arrivalQueue) stats() (remaining int, overflow uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size(), q.overflow
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
		q.push(next.UnixNano())
	}
}
