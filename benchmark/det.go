package main

import (
	"errors"
	"fmt"
)

// runDet drives the deterministic path: one sequencer (this goroutine)
// declares a batch's access sets, compiles them into per-partition queues
// and hands them to the engine's W partition executors; the next batch
// starts when the last has committed. One latency sample per batch, plan
// start to ExecuteBatch return.
func runDet(def *workloadDef, o runOpts, r *result) error {
	clk := newClock()
	spec := def.spec
	batches := def.perWindow
	windows := o.windows(def)

	d, _, _, err := setUp(r, spec, o, clk)
	if err != nil {
		return err
	}
	seq, err := d.newDetDriver(detBatch, o.seed)
	if err != nil {
		return errors.Join(err, d.close())
	}
	// The sequencer is worker W: partitions 0..W-1 run inside the engine.
	buf := newSpanBuf(spec.workers, o.spanCapacity((windows/2)*batches*4))
	lat := make([]int64, batches)

	runWindow := func(window int, traced bool) (wall int64, err error) {
		start := clk.now()
		t0 := start
		for b := range lat {
			seq.planTxns()
			t1 := clk.now()
			seq.planBatch()
			t2 := clk.now()
			err := seq.executeBatch()
			t3 := clk.now()
			if err != nil {
				return 0, err
			}
			lat[b] = t3 - t0
			if traced {
				p := buf.add(spanBatch, window, -1, t0, t3)
				buf.add(spanPlanTxn, window, p, t0, t1)
				buf.add(spanPlanBatch, window, p, t1, t2)
				buf.add(spanExecuteBatch, window, p, t2, t3)
			}
			t0 = t3
		}
		return t0 - start, nil
	}
	for i := 0; i < warmWindows(def); i++ {
		if _, err := runWindow(0, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	var plain, withSpans series
	counts0 := d.counts()
	perWindow := int64(batches * detBatch)
	for window := 0; window < windows; window++ {
		traced := o.trace && window%2 == 1
		before := readMem()
		wall, err := runWindow(window, traced)
		after := readMem()
		if err != nil {
			return err
		}
		s := &plain
		if traced {
			s = &withSpans
		}
		s.add(perWindow, wall, lat, before, after)
	}
	seq.close()
	counts := d.counts().sub(counts0)
	attempted := int64(windows) * perWindow

	plain.report(r, &withSpans)
	reportFailures(r, attempted, 0) // a failed batch ends the run above
	reportCounts(r, counts, attempted)
	reportDetSpans(r, buf)

	var aborted error
	if counts.aborts != 0 {
		aborted = fmt.Errorf("%d aborts", counts.aborts)
	}
	r.check("zero conflict aborts", aborted)
	// Deterministic execution never retries, so the engine's write counter
	// is exactly the updates planned since load, and each adds 1 to a
	// version column that loads as 0.
	_, versions, err := d.checksum()
	if planned := int64(d.counts().writes); err == nil && versions != planned {
		err = fmt.Errorf("version sum %d, engine counted %d updates", versions, planned)
	}
	r.check("every planned update applied once", err)
	r.digest = d.digest()
	r.checks = append(r.checks, "state digest "+r.digest+" (a pure function of -seed and -seconds)")

	if err := closeAndReportSpace(r, d, func() { d, seq = nil, nil }); err != nil {
		return err
	}
	return finishTrace(r, o, []*spanBuf{buf})
}

// reportDetSpans emits the plan-versus-execute split from a traced run's
// batch spans. Planning runs on the single sequencer, so its share of a
// batch bounds the speed-up any executor change can buy.
func reportDetSpans(r *result, buf *spanBuf) {
	var sum [len(spanNames)]int64
	var n int
	for _, s := range buf.spans {
		sum[s.name] += s.end - s.start
		if s.name == spanBatch {
			n++
		}
	}
	if n == 0 {
		return
	}
	r.put("det.plan_us_per_batch", micros(sum[spanPlanBatch])/float64(n))
	r.put("core.det_execute_us_per_batch", micros(sum[spanExecuteBatch])/float64(n))
}
