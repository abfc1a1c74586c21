package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"next700/internal/admission"
	"next700/internal/core"
	"next700/internal/stats"
	"next700/internal/workload"
)

// The load driver is a product of two choices and nothing else — where
// arrivals come from (closedLoop, arrivalQueue) and what executes them
// (txExec, detExec). drive owns everything the four combinations share: the
// warm-up rendezvous, the measured window, the per-worker collectors and the
// Result. DESIGN.md ("Measurement: one load driver") has the picture.

// arrivals is where a worker's next transaction comes from. next blocks until
// one is due and returns its arrival stamp and the current time (UnixNano);
// ok is false when the window is over. until, when non-zero, is a time the
// caller must be back by: a source that would block past it returns at == 0.
type arrivals interface {
	next(until int64) (at, now int64, ok bool)
}

// closedLoop is one worker's closed-loop source: the next transaction arrives
// the moment the worker's previous one is done, until the worker has had left
// of them (a negative left never runs out) or stop closes. It never makes the
// worker wait, so it has no use for the return-by bound.
type closedLoop struct {
	left int
	stop <-chan struct{}
	// last is the worker's collector's last clock reading, which the next
	// arrival reuses instead of reading the clock again.
	last *int64
}

func (c *closedLoop) next(int64) (at, now int64, ok bool) {
	select {
	case <-c.stop:
		return 0, 0, false
	default:
	}
	if c.left == 0 {
		return 0, 0, false
	}
	c.left--
	if *c.last == 0 {
		*c.last = time.Now().UnixNano()
	}
	return *c.last, *c.last, true
}

// executor turns one worker's arrivals into transactions.
type executor interface {
	// warm runs the executor's warm-up, before the window opens.
	warm() error
	// exec takes the arrival stamped at; now is the clock as the source last
	// read it. wake, when non-zero, asks to be called again by that time even
	// if nothing arrives — that call has at == 0. Outcomes that are
	// measurements (deadline and partition aborts, shed arrivals) are
	// counted, not returned; an error ends the worker.
	exec(at, now int64, c *collector) (wake int64, err error)
	// finish ends the window and returns the arrivals the executor accepted
	// but never ran.
	finish() (backlog uint64)
}

// collector is one worker's measurements over the window. Each worker owns
// one (separately allocated, so neighbours share no cache line).
type collector struct {
	svc *stats.Histogram
	// queue and e2e are nil in a closed loop, whose Result reports neither.
	queue, e2e *stats.Histogram
	good, late uint64
	budget     int64 // goodput window in ns; 0 = every commit is good
	last       int64 // the executor's last clock reading (UnixNano); 0 = none yet
	backlog    uint64
	err        error
}

func newCollector(budget time.Duration, open bool) *collector {
	c := &collector{svc: stats.NewHistogram(), budget: int64(budget)}
	if open {
		c.queue, c.e2e = stats.NewHistogram(), stats.NewHistogram()
	}
	return c
}

// commit records one committed transaction: svc is the time the executor
// spent on it, e2e the time since it arrived.
func (c *collector) commit(svc, e2e int64) {
	c.svc.Record(svc)
	if c.e2e != nil {
		c.e2e.Record(e2e)
	}
	if c.budget > 0 && e2e > c.budget {
		c.late++
	} else {
		c.good++
	}
}

// txExec is the interactive executor: one worker's Tx, driven through the
// workload's retry loop one arrival at a time.
type txExec struct {
	wl       workload.Workload
	tx       *core.Tx
	ctrl     *admission.Controller // nil without admission control
	warmup   int
	deadline int64 // enforced per-transaction deadline from arrival, ns; 0 = none
}

func (x *txExec) warm() error {
	for i := 0; i < x.warmup; i++ {
		if err := x.wl.RunOne(x.tx); err != nil && !measured(err) {
			return err
		}
	}
	return nil
}

// measured reports whether err is a per-transaction outcome the engine has
// already accounted — a deadline abort, or an abort on a quarantined
// partition — rather than a run failure.
func measured(err error) bool {
	return errors.Is(err, core.ErrDeadlineExceeded) || errors.Is(err, core.ErrPartitionUnavailable)
}

func (x *txExec) exec(at, now int64, c *collector) (int64, error) {
	ctr := x.tx.Counter()
	var dl int64
	if x.deadline > 0 {
		dl = at + x.deadline
		if now >= dl {
			// Aged out while queued: shed for free, before the engine sees it.
			ctr.DeadlineAborts++
			return 0, nil
		}
	}
	x.tx.SetDeadlineNanos(dl)
	if x.ctrl != nil {
		if err := x.ctrl.Acquire(dl); err != nil {
			ctr.ShedAborts++
			c.last = 0 // the wait went on the clock unread: the next arrival reads it
			return 0, nil
		}
		now = time.Now().UnixNano()
	}
	if c.queue != nil {
		c.queue.Record(now - at)
	}
	before := ctr.Commits
	err := x.wl.RunOne(x.tx)
	done := time.Now().UnixNano()
	c.last = done
	if x.ctrl != nil {
		x.ctrl.Release(time.Duration(done - now))
	}
	if err != nil && !measured(err) {
		return 0, err
	}
	if ctr.Commits > before {
		c.commit(done-now, done-at)
	}
	return 0, nil
}

func (x *txExec) finish() uint64 {
	x.tx.ClearDeadline()
	return 0
}

// load is what one run hands the driver: an executor per worker and what
// the window needs to know about them.
type load struct {
	execs []executor
	// count, when > 0, closes the loop after that many arrivals per worker
	// instead of after opts.Duration.
	count int
	// ctrl is the admission controller the executors gate through (nil
	// without admission); the driver samples it into the timeline.
	ctrl *admission.Controller
}

// drive measures ld against an already set-up engine: every worker warms
// up, they rendezvous, and one window — timer, allocation bracket, counter
// delta — spans all of them.
func drive(e *core.Engine, ld load, opts RunOptions) (Result, error) {
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	workers := len(ld.execs)
	// The goodput window classifies, the deadline enforces. When only a
	// deadline is set it plays both roles; when both are set the deadline is
	// typically tighter (enforce early, leave SLO headroom for the work that
	// survives).
	budget := opts.GoodputWindow
	if budget == 0 {
		budget = opts.Deadline
	}
	stop := make(chan struct{})
	endWindow := sync.OnceFunc(func() { close(stop) })

	var queue *arrivalQueue
	if opts.OfferedRate > 0 {
		qcap := int(opts.OfferedRate*opts.Duration.Seconds()*1.25) + 1024
		if qcap > maxArrivalQueue {
			qcap = maxArrivalQueue
		}
		queue = newArrivalQueue(qcap)
	}
	timed := queue != nil || ld.count <= 0 // the window ends at opts.Duration
	cols := make([]*collector, workers)
	srcs := make([]arrivals, workers)
	for i := range cols {
		cols[i] = newCollector(budget, queue != nil)
		switch {
		case queue != nil:
			srcs[i] = queue
		case timed:
			srcs[i] = &closedLoop{left: -1, stop: stop, last: &cols[i].last}
		default:
			srcs[i] = &closedLoop{left: ld.count, stop: stop, last: &cols[i].last}
		}
	}

	// Workers rendezvous after warmup so the measurement window (and its
	// duration timer) begins only once every worker is warm — otherwise a
	// slow-commit configuration can burn the whole window warming up. A
	// worker whose warm-up fails still checks in, then sits the window out.
	var warm, wg sync.WaitGroup
	warm.Add(workers)
	begin := make(chan struct{})
	for i := range ld.execs {
		wg.Add(1)
		go func(x executor, src arrivals, c *collector) {
			defer wg.Done()
			err := x.warm()
			warm.Done()
			if err != nil {
				c.err = err
				return
			}
			<-begin
			var wake int64
			for {
				at, now, ok := src.next(wake)
				if !ok {
					break
				}
				if wake, c.err = x.exec(at, now, c); c.err != nil {
					break
				}
			}
			c.backlog = x.finish()
		}(ld.execs[i], srcs[i], cols[i])
	}
	warm.Wait()
	// Workers are parked on begin: the counters hold exactly the warm-up.
	base := e.TotalCounter()
	var memBefore, memAfter runtime.MemStats
	if opts.MeasureAllocs {
		// Settle the heap so warmup garbage is not charged to the window.
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	close(begin)

	var timeline func() []AdmissionSample
	if ld.ctrl != nil {
		timeline = sampleAdmission(ld.ctrl, opts.Duration, start)
	}
	var generated uint64
	var gen sync.WaitGroup
	if queue != nil {
		gen.Add(1)
		go func() {
			defer gen.Done()
			generated = generate(queue, opts.OfferedRate, opts.Seed, stop)
		}()
	}
	if timed {
		defer time.AfterFunc(opts.Duration, endWindow).Stop()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if opts.MeasureAllocs {
		runtime.ReadMemStats(&memAfter)
	}
	// Every worker is done (the count ran out, or each one failed): whatever
	// still feeds the window stops now rather than at the timer.
	endWindow()
	gen.Wait()

	total := e.TotalCounter()
	total.Sub(&base)
	svc, queueH, e2e := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
	var good, late, backlog uint64
	var firstErr error
	for i, c := range cols {
		svc.Merge(c.svc)
		queueH.Merge(c.queue)
		e2e.Merge(c.e2e)
		good += c.good
		late += c.late
		backlog += c.backlog
		if c.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker %d: %w", i, c.err)
		}
	}
	res := Result{
		Threads:         workers,
		Elapsed:         elapsed,
		Commits:         total.Commits,
		Aborts:          total.Aborts,
		UserAborts:      total.UserAborts,
		FatalAborts:     total.FatalAborts,
		DeadlineAborts:  total.DeadlineAborts,
		ShedAborts:      total.ShedAborts,
		PartitionAborts: total.PartitionAborts,
		Waits:           total.Waits,
		Tps:             float64(total.Commits) / elapsed.Seconds(),
		Goodput:         float64(good) / elapsed.Seconds(),
		LateCommits:     late,
		AbortRate:       total.AbortRate(),
		Latency:         svc.Summarize(),
	}
	if queue != nil {
		remaining, overflow := queue.stats()
		res.Offered = opts.OfferedRate
		res.Arrivals = generated
		res.Backlog = uint64(remaining) + overflow + backlog
		res.QueueLatency = queueH.Summarize()
		res.E2ELatency = e2e.Summarize()
	}
	if opts.MeasureAllocs && total.Commits > 0 {
		res.AllocsPerTxn = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(total.Commits)
		res.BytesPerTxn = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(total.Commits)
	}
	if timeline != nil {
		res.AdmissionTimeline = timeline()
		res.AdmissionLimit = ld.ctrl.Limit()
	}
	return res, firstErr
}

// sampleAdmission turns the controller's Snapshots into a timeline of one
// sample per sixteenth of the run (at least 1ms apart): AIMD limit and
// latency EWMA at each instant, plus the shed rate within each interval
// (delta-based, so a burst of early shedding does not mask late-run health).
// The returned function ends the sampling with a closing sample — the
// operating point the controller converged to — and returns the timeline.
func sampleAdmission(ctrl *admission.Controller, d time.Duration, start time.Time) func() []AdmissionSample {
	every := max(d/16, time.Millisecond)
	var timeline []AdmissionSample
	var prev admission.Stats
	sample := func() {
		s := ctrl.Snapshot()
		dAdmitted, dShed := s.Admitted-prev.Admitted, s.Shed-prev.Shed
		rate := 0.0
		if dAdmitted+dShed > 0 {
			rate = float64(dShed) / float64(dAdmitted+dShed)
		}
		timeline = append(timeline, AdmissionSample{
			Offset:      time.Since(start),
			Limit:       s.Limit,
			InFlight:    s.InFlight,
			LatencyEWMA: s.LatencyEWMA,
			Admitted:    s.Admitted,
			Shed:        s.Shed,
			ShedRate:    rate,
		})
		prev = s
	}
	end, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-end:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() []AdmissionSample {
		close(end)
		<-done
		return timeline
	}
}
