package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"next700/internal/core"
	"next700/internal/workload"
)

// TestDriveProduct runs the whole arrivals × executor product through the one
// driver and holds every combination to the same accounting.
func TestDriveProduct(t *testing.T) {
	ycsb := func() *workload.YCSB {
		return workload.NewYCSB(workload.YCSBConfig{Records: 2048, OpsPerTxn: 4, Theta: 0.6})
	}
	interactive := func(opts RunOptions) (Result, error) {
		opts.Threads, opts.WarmupTxns = 2, 20
		if opts.OfferedRate == 0 {
			opts.TxnsPerWorker = 300
		}
		return Run(core.Config{Protocol: "SILO"}, ycsb(), opts)
	}
	deterministic := func(opts RunOptions) (Result, error) {
		return RunDet(core.Config{Partitions: 2}, ycsb(), opts,
			DetOptions{Batch: 16, Batches: 20, WarmupBatches: 2})
	}
	closed := RunOptions{Seed: 11, MeasureAllocs: true}
	open := RunOptions{Seed: 11, MeasureAllocs: true, OfferedRate: 4000, Duration: 120 * time.Millisecond}
	for _, tc := range []struct {
		name string
		run  func(RunOptions) (Result, error)
		opts RunOptions
	}{
		{"closed/interactive", interactive, closed},
		{"open/interactive", interactive, open},
		{"closed/det", deterministic, closed},
		{"open/det", deterministic, open},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 || res.Latency.Count != res.Commits {
				t.Fatalf("commits=%d with %d service-latency samples", res.Commits, res.Latency.Count)
			}
			// One window brackets every mode, so the allocation report is
			// never the silent zero the open loops used to print.
			if res.AllocsPerTxn <= 0 || res.BytesPerTxn <= 0 {
				t.Errorf("allocs/txn=%v bytes/txn=%v with MeasureAllocs on", res.AllocsPerTxn, res.BytesPerTxn)
			}
			isOpen := tc.opts.OfferedRate > 0
			if isOpen {
				if res.Offered != tc.opts.OfferedRate || res.Arrivals < res.Commits+res.Backlog {
					t.Errorf("offered=%v arrivals=%d < commits=%d + backlog=%d",
						res.Offered, res.Arrivals, res.Commits, res.Backlog)
				}
			} else if res.Arrivals != 0 || res.Backlog != 0 {
				t.Errorf("closed loop reported arrivals=%d backlog=%d", res.Arrivals, res.Backlog)
			}
			// Queue and end-to-end latency are reported iff arrivals are open:
			// in a closed loop a transaction arrives when its worker asks.
			if got := res.QueueLatency.Count > 0 && res.E2ELatency.Count > 0; got != isOpen {
				t.Errorf("queue samples=%d e2e samples=%d in a run with open=%v",
					res.QueueLatency.Count, res.E2ELatency.Count, isOpen)
			}
			if isOpen && res.E2ELatency.Count != res.Commits {
				t.Errorf("%d e2e samples for %d commits", res.E2ELatency.Count, res.Commits)
			}
			if isDet := res.Digest != ""; isDet {
				if res.Aborts != 0 || res.FatalAborts != 0 {
					t.Errorf("deterministic run aborted: %d conflict, %d fatal", res.Aborts, res.FatalAborts)
				}
				// The closed-loop digest is an oracle: same seed, same batches,
				// same state. The open loop's is not — its batches are cut by
				// the wall-clock age of their oldest arrival, so two runs plan
				// the same transactions into different batches and even commit
				// different counts.
				if !isOpen {
					again, err := tc.run(tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					if again.Digest != res.Digest || res.Commits != 16*20 {
						t.Errorf("same-seed closed det runs: digests %s vs %s, commits %d", res.Digest, again.Digest, res.Commits)
					}
				}
			}
		})
	}
}

// failAfter is a workload whose transactions start failing with a
// non-retryable error after a number of successes across all workers.
type failAfter struct {
	*workload.YCSB
	ok chan struct{}
}

var errInjected = errors.New("injected failure")

func (w failAfter) RunOne(tx *core.Tx) error {
	select {
	case <-w.ok:
		return w.YCSB.RunOne(tx)
	default:
		return errInjected
	}
}

func newFailAfter(n int) failAfter {
	w := failAfter{workload.NewYCSB(workload.YCSBConfig{Records: 512, OpsPerTxn: 2}), make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		w.ok <- struct{}{}
	}
	return w
}

// TestDriveWorkerError: a worker error ends the run as "worker N: …" with
// the partial counts, in a closed loop and — where the queue must still
// close so the other workers' blocked pops wake — in an open one.
func TestDriveWorkerError(t *testing.T) {
	for name, opts := range map[string]RunOptions{
		"closed": {Threads: 2, TxnsPerWorker: 1000, Seed: 1},
		"open":   {Threads: 2, Duration: 150 * time.Millisecond, OfferedRate: 5000, Seed: 1},
	} {
		res, err := Run(core.Config{Protocol: "SILO"}, newFailAfter(40), opts)
		if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), "worker ") {
			t.Fatalf("%s: err = %v, want a worker-prefixed injected failure", name, err)
		}
		if res.Commits != 40 {
			t.Errorf("%s: partial commits = %d, want 40", name, res.Commits)
		}
	}
}

// TestDriveWarmupError: a worker whose warm-up fails still checks in at the
// rendezvous, so the others run their window and the run reports the error
// instead of hanging.
func TestDriveWarmupError(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(core.Config{Protocol: "SILO"}, newFailAfter(30),
			RunOptions{Threads: 2, WarmupTxns: 20, TxnsPerWorker: 5, Seed: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("warm-up failure deadlocked the rendezvous")
	}
}

// TestQueueNextByDeadline: a bounded wait on an empty queue comes back at
// the bound with no arrival; an arrival or a close ends it sooner.
func TestQueueNextByDeadline(t *testing.T) {
	q := newArrivalQueue(16)
	start := time.Now()
	at, now, ok := q.next(start.Add(5 * time.Millisecond).UnixNano())
	if !ok || at != 0 || now < start.Add(5*time.Millisecond).UnixNano() {
		t.Fatalf("bounded wait on an empty queue: at=%d ok=%v after %v", at, ok, time.Since(start))
	}
	q.push(42)
	if at, _, ok := q.next(time.Now().Add(time.Hour).UnixNano()); !ok || at != 42 {
		t.Fatalf("queued arrival not returned ahead of the bound: at=%d ok=%v", at, ok)
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		q.close()
	}()
	if _, _, ok := q.next(time.Now().Add(20 * time.Millisecond).UnixNano()); ok {
		t.Fatal("bounded wait outlived close")
	}
}

// TestClosedLoopReusesLastStamp: a closed loop's arrival is the instant its
// worker last read the clock — the previous transaction's done stamp — so a
// transaction costs one clock read; only a worker with no reading yet (the
// first arrival, or one after a shed) reads it afresh.
func TestClosedLoopReusesLastStamp(t *testing.T) {
	var last int64
	src := &closedLoop{left: 2, stop: make(chan struct{}), last: &last}
	at, now, ok := src.next(0)
	if !ok || at <= 0 || now != at || last != at {
		t.Fatalf("first arrival at=%d now=%d ok=%v last=%d: want a fresh clock reading", at, now, ok, last)
	}
	last = 12345
	if at, now, ok := src.next(0); !ok || at != 12345 || now != 12345 {
		t.Fatalf("second arrival at=%d now=%d ok=%v: want the previous done stamp", at, now, ok)
	}
	if _, _, ok := src.next(0); ok {
		t.Fatal("arrival past the loop's count")
	}
}
