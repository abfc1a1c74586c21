package harness

import (
	"testing"
	"time"

	"next700/internal/admission"
	"next700/internal/core"
	"next700/internal/workload"
)

func TestOpenLoopProtected(t *testing.T) {
	res, err := Run(core.Config{Protocol: "SILO"},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{
			Threads:     2,
			Duration:    300 * time.Millisecond,
			WarmupTxns:  20,
			Seed:        1,
			OfferedRate: 2000,
			Deadline:    20 * time.Millisecond,
			Admission:   &admission.Config{MaxQueueWait: 10 * time.Millisecond},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 2000 {
		t.Fatalf("offered = %v", res.Offered)
	}
	if res.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Commits == 0 {
		t.Fatal("no commits in open-loop run")
	}
	// At an offered rate far below capacity nothing should be late and
	// goodput should track throughput.
	if res.Goodput <= 0 || res.Goodput > res.Tps+1 {
		t.Fatalf("goodput = %v vs tps = %v", res.Goodput, res.Tps)
	}
	// Every generated arrival is accounted for: executed (commit or
	// terminal abort), shed, expired in queue, or left in the backlog.
	accounted := res.Commits + res.Aborts + res.UserAborts + res.FatalAborts +
		res.DeadlineAborts + res.ShedAborts + res.Backlog
	if accounted < res.Arrivals {
		t.Fatalf("arrivals=%d but only %d accounted for", res.Arrivals, accounted)
	}
	if res.AdmissionLimit <= 0 {
		t.Fatalf("admission limit = %d with a controller configured", res.AdmissionLimit)
	}
	if res.QueueLatency.Count == 0 || res.E2ELatency.Count == 0 {
		t.Fatal("queue/e2e latency not recorded")
	}
}

// TestOpenLoopUnprotectedClassifiesLateness: with only a goodput window (no
// enforcement) every commit still lands, but commits slower than the window
// end-to-end are classified late rather than good.
func TestOpenLoopUnprotectedWindow(t *testing.T) {
	res, err := Run(core.Config{Protocol: "SILO"},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{
			Threads:       1,
			Duration:      200 * time.Millisecond,
			Seed:          1,
			OfferedRate:   500,
			GoodputWindow: 50 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineAborts != 0 || res.ShedAborts != 0 {
		t.Fatalf("window-only run enforced something: deadline_aborts=%d shed=%d",
			res.DeadlineAborts, res.ShedAborts)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	goodOrLate := uint64(res.Goodput*res.Elapsed.Seconds()+0.5) + res.LateCommits
	if diff := int64(goodOrLate) - int64(res.Commits); diff > 1 || diff < -1 {
		t.Fatalf("good(%d)+late(%d) != commits(%d)", goodOrLate-res.LateCommits,
			res.LateCommits, res.Commits)
	}
}

// TestClosedLoopDeadlinePassThrough: the closed-loop driver treats a
// deadline abort as a per-transaction outcome, and an ample deadline leaves
// a normal run untouched.
func TestClosedLoopDeadlineHarmless(t *testing.T) {
	res, err := Run(core.Config{Protocol: "SILO"},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{Threads: 2, TxnsPerWorker: 100, Seed: 1, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.DeadlineAborts != 0 {
		t.Fatalf("commits=%d deadline_aborts=%d", res.Commits, res.DeadlineAborts)
	}
}

// TestAdmissionTimeline checks the per-window controller trace: samples are
// time-ordered, carry a live limit, are cumulative-consistent, and the
// closing sample agrees with the Result's final operating point.
func TestAdmissionTimeline(t *testing.T) {
	res, err := Run(core.Config{Protocol: "SILO"},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{
			Threads:     2,
			Duration:    300 * time.Millisecond,
			WarmupTxns:  20,
			Seed:        1,
			OfferedRate: 2000,
			Deadline:    20 * time.Millisecond,
			Admission:   &admission.Config{MaxQueueWait: 10 * time.Millisecond},
		})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.AdmissionTimeline
	if len(tl) < 2 {
		t.Fatalf("timeline has %d samples, want >= 2", len(tl))
	}
	for i, s := range tl {
		if s.Limit <= 0 {
			t.Fatalf("sample %d: limit = %d", i, s.Limit)
		}
		if s.ShedRate < 0 || s.ShedRate > 1 {
			t.Fatalf("sample %d: shed rate = %v", i, s.ShedRate)
		}
		if i == 0 {
			continue
		}
		if s.Offset <= tl[i-1].Offset {
			t.Fatalf("sample %d: offset %v not after %v", i, s.Offset, tl[i-1].Offset)
		}
		if s.Admitted < tl[i-1].Admitted || s.Shed < tl[i-1].Shed {
			t.Fatalf("sample %d: cumulative counters went backwards", i)
		}
	}
	final := tl[len(tl)-1]
	if final.Limit != res.AdmissionLimit {
		t.Fatalf("closing sample limit %d != final AdmissionLimit %d", final.Limit, res.AdmissionLimit)
	}
	if final.Admitted == 0 {
		t.Fatal("controller admitted nothing")
	}
}
