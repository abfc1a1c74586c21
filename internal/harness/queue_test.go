package harness

import (
	"testing"
	"time"
)

// TestQueueFIFODefault: the queue serves oldest first, refuses arrivals past
// its capacity as overflow, and a bounded wait on it empty comes back with no
// arrival.
func TestQueueFIFODefault(t *testing.T) {
	q := newArrivalQueue(4)
	for i := int64(1); i <= 4; i++ {
		q.push(i)
	}
	q.push(5) // over capacity
	for want := int64(1); want <= 4; want++ {
		if got, _, ok := q.next(1); !ok || got != want {
			t.Fatalf("next = %d,%v want %d", got, ok, want)
		}
	}
	if at, _, _ := q.next(1); at != 0 {
		t.Fatalf("next on an empty queue returned arrival %d", at)
	}
	if remaining, overflow := q.stats(); remaining != 0 || overflow != 1 {
		t.Fatalf("stats = %d remaining, %d overflow", remaining, overflow)
	}
}

// TestQueueCloseUnblocks: close wakes blocked waiters and stops service even
// with entries still queued (they are backlog, as with the old channel).
func TestQueueCloseUnblocks(t *testing.T) {
	q := newArrivalQueue(16)
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
	q.push(1) // ignored after close
	if remaining, _ := q.stats(); remaining != 0 {
		t.Fatalf("closed queue accepted a push: %d queued", remaining)
	}
}
