package harness

import (
	"testing"
	"time"

	"next700/internal/core"
	"next700/internal/workload"
)

const ms = int64(time.Millisecond)

// TestQueueFIFODefault: with no discipline configured the queue is a plain
// bounded FIFO and reports no discipline activity.
func TestQueueFIFODefault(t *testing.T) {
	q := newArrivalQueue(4, 0, 0, 0)
	for i := int64(1); i <= 4; i++ {
		q.pushAt(i, i)
	}
	q.pushAt(5, 5) // over capacity
	for want := int64(1); want <= 4; want++ {
		got, ok := q.popAt(1000 * ms)
		if !ok || got != want {
			t.Fatalf("pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := q.popAt(1000 * ms); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	remaining, dropped, overflow, lifo := q.stats()
	if remaining != 0 || dropped != 0 || lifo != 0 || overflow != 1 {
		t.Fatalf("stats = %d remaining, %d dropped, %d overflow, %d lifo", remaining, dropped, overflow, lifo)
	}
}

// TestQueueAdaptiveLIFO: an aged head flips service to newest-first; a
// fresh queue stays FIFO.
func TestQueueAdaptiveLIFO(t *testing.T) {
	q := newArrivalQueue(16, 10*time.Millisecond, 0, 0)
	q.pushAt(0, 0)
	q.pushAt(1*ms, 1*ms)
	q.pushAt(2*ms, 2*ms)

	// Head age 2ms < 10ms: FIFO.
	if got, _ := q.popAt(2 * ms); got != 0 {
		t.Fatalf("uncongested pop = %d, want head 0", got)
	}
	// Head (1ms) is now 19ms old: LIFO serves the newest arrival.
	if got, _ := q.popAt(20 * ms); got != 2*ms {
		t.Fatalf("congested pop = %d, want tail %d", got, 2*ms)
	}
	// One entry left: served regardless of age (the drain path).
	if got, _ := q.popAt(40 * ms); got != 1*ms {
		t.Fatalf("drain pop = %d, want %d", got, 1*ms)
	}
	if _, _, _, lifo := q.stats(); lifo != 1 {
		t.Fatalf("lifo pops = %d, want 1", lifo)
	}
}

// TestQueueCoDelDrop: the control law tolerates a transient age excursion
// for one interval, then evicts aged heads until the head age recovers.
func TestQueueCoDelDrop(t *testing.T) {
	target, interval := 5*time.Millisecond, 20*time.Millisecond
	q := newArrivalQueue(1024, 0, target, interval)

	q.pushAt(0, 0)
	// Head 6ms old (> target): arms the interval clock, no drop yet.
	q.pushAt(6*ms, 6*ms)
	if _, dropped, _, _ := q.stats(); dropped != 0 {
		t.Fatalf("dropped %d before a full interval elapsed", dropped)
	}
	// Still above target but inside the armed interval (6+20=26ms): no drop.
	q.pushAt(20*ms, 20*ms)
	if _, dropped, _, _ := q.stats(); dropped != 0 {
		t.Fatalf("dropped %d inside the tolerance interval", dropped)
	}
	// Past the armed interval with the head still above target: dropping
	// starts and evicts aged heads (0, 6ms, 20ms are all > 5ms old at 30ms;
	// the control law spaces further drops, so exactly one goes now).
	q.pushAt(30*ms, 30*ms)
	if _, dropped, _, _ := q.stats(); dropped != 1 {
		_, d, _, _ := q.stats()
		t.Fatalf("dropped = %d at dropping onset, want 1", d)
	}
	// Far later, everything queued is ancient: the schedule catches up in a
	// batch — every stale head is evicted and only the fresh arrival
	// remains (an emptied queue also disarms the congestion state).
	q.pushAt(230*ms, 230*ms)
	remaining, dropped, _, _ := q.stats()
	if remaining != 1 {
		t.Fatalf("remaining = %d, want only the fresh arrival", remaining)
	}
	if dropped != 4 {
		t.Fatalf("dropped = %d, want all 4 stale arrivals", dropped)
	}
	// Recovery: a young head disarms the state machine; nothing dropped.
	for {
		if _, ok := q.popAt(231 * ms); !ok {
			break
		}
	}
	before := dropped
	q.pushAt(240*ms, 240*ms)
	q.pushAt(241*ms, 241*ms)
	if _, d, _, _ := q.stats(); d != before {
		t.Fatalf("recovered queue dropped %d more", d-before)
	}
}

// TestQueueCloseUnblocks: close wakes blocked waiters and stops service even
// with entries still queued (they are backlog, as with the old channel).
func TestQueueCloseUnblocks(t *testing.T) {
	q := newArrivalQueue(16, 0, 0, 0)
	done := make(chan bool)
	go func() {
		_, _, ok := q.next(0)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on closed queue returned an item")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock pop")
	}
	q.pushAt(1, 1) // ignored after close
	if remaining, _, _, _ := q.stats(); remaining != 0 {
		t.Fatalf("closed queue accepted a push: %d queued", remaining)
	}
}

// TestOpenLoopQueueDiscipline drives a deliberately overloaded open-loop
// run with adaptive LIFO and CoDel on: the disciplines must engage (LIFO
// service and enqueue drops observed) and the run must stay accounted —
// every arrival is executed, shed, dropped, expired, or backlog.
func TestOpenLoopQueueDiscipline(t *testing.T) {
	res, err := Run(core.Config{Protocol: "SILO"},
		workload.NewYCSB(workload.YCSBConfig{Records: 4096, OpsPerTxn: 64}),
		RunOptions{
			Threads:            1,
			Duration:           300 * time.Millisecond,
			WarmupTxns:         10,
			Seed:               1,
			OfferedRate:        300_000, // far past one thread's capacity
			Deadline:           20 * time.Millisecond,
			QueueLIFOAge:       2 * time.Millisecond,
			QueueCoDelTarget:   5 * time.Millisecond,
			QueueCoDelInterval: 10 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits under overload")
	}
	if res.QueueLIFOServed == 0 {
		t.Fatal("adaptive LIFO never engaged under overload")
	}
	if res.QueueDropped == 0 {
		t.Fatal("CoDel never dropped under overload")
	}
	accounted := res.Commits + res.Aborts + res.UserAborts + res.FatalAborts +
		res.DeadlineAborts + res.ShedAborts + res.QueueDropped + res.Backlog
	if accounted < res.Arrivals {
		t.Fatalf("arrivals=%d but only %d accounted for", res.Arrivals, accounted)
	}
}
