package main

import "fmt"

// runInteractive drives a closed loop: W workers each call Workload.RunOne,
// wait for it to return (retries and the durability wait are inside), and
// call it again, perWindow times per window.
func runInteractive(def *workloadDef, o runOpts, r *result) error {
	clk := newClock()
	spec := def.spec
	W, n := spec.workers, def.perWindow
	windows := o.windows(def)
	d, devs, devBufs, err := setUp(r, spec, o, clk)
	if err != nil {
		return err
	}
	workers := make([]*worker, W)
	bufs := make([]*spanBuf, W)
	lat := make([][]int64, W)
	fails := make([]int64, W)
	for id := range workers {
		workers[id] = d.newWorker(id, o.seed)
		bufs[id] = newSpanBuf(id, o.spanCapacity((windows/2)*(n+1)))
		lat[id] = make([]int64, n)
	}
	merged := make([]int64, 0, W*n)

	// The loop below is all a window runs: it allocates nothing, so
	// allocs_per_txn is the engine's and the workload generator's.
	window, traced := 0, false
	g := newGang(W, clk, func(id int) {
		w, l, b := workers[id], lat[id], bufs[id]
		parent := int32(-1)
		start := clk.now()
		if traced {
			// The window span's end is patched when the window ends; txns
			// name it as their parent.
			parent = b.add(spanWindow, window, -1, start, start)
		}
		t0 := start
		for i := range l {
			err := w.runOne()
			t1 := clk.now()
			l[i] = t1 - t0
			if err != nil {
				fails[id]++
			}
			if traced {
				b.add(spanTxn, window, parent, t0, t1)
			}
			t0 = t1
		}
		if parent >= 0 {
			b.spans[parent].end = t0
		}
	})
	takeFails := func() (n int64) {
		for id := range fails {
			n += fails[id]
			fails[id] = 0
		}
		return n
	}

	warm := warmWindows(def)
	for i := 0; i < warm; i++ {
		g.window()
	}
	if failed := takeFails(); failed > 0 {
		return fmt.Errorf("%d transactions failed during warm-up", failed)
	}

	var plain, withSpans series
	var failed int64
	counts0, dev0 := d.counts(), countDevices(devs)
	for window = 0; window < windows; window++ {
		traced = o.trace && window%2 == 1
		for i, dv := range devs {
			dv.window.Store(uint32(window))
			devBufs[i].on.Store(traced)
		}
		before := readMem()
		wall := g.window()
		after := readMem()
		merged = merged[:0]
		for id := range lat {
			merged = append(merged, lat[id]...)
		}
		windowFails := takeFails()
		failed += windowFails
		s := &plain
		if traced {
			s = &withSpans
		}
		s.add(int64(W*n)-windowFails, wall, merged, before, after)
	}
	g.stop()
	for _, b := range devBufs {
		b.on.Store(false)
	}
	counts, dev := d.counts().sub(counts0), countDevices(devs).sub(dev0)
	attempted := int64(windows * W * n)

	plain.report(r, &withSpans)
	reportFailures(r, attempted, failed)
	reportCounts(r, counts, attempted-failed)
	if spec.log != logNone {
		reportDevice(r, dev, attempted-failed, withSpans.wallNs, devBufs)
	}

	r.check("workload verify", d.verify())
	var sum uint64
	if spec.log != logNone {
		var versions int64
		sum, versions, err = d.checksum()
		// Every op is an RMW and each adds 1 to a version column that
		// loads as 0; the warm-up windows count too.
		if want := (int64((warm+windows)*W*n) - failed) * int64(spec.opsPerTxn); err == nil && versions != want {
			err = fmt.Errorf("version sum %d, want %d", versions, want)
		}
		r.check("every committed update applied once", err)
	}
	if err := closeAndReportSpace(r, d, func() { d, workers = nil, nil }); err != nil {
		return err
	}
	if spec.log != logNone {
		r.check("recovered state matches source", recoverAndCompare(spec, clk, devs, sum))
	}
	return finishTrace(r, o, append(bufs, devBufs...))
}

// recoverAndCompare is the durability check: a fresh engine, loaded, then
// recovered from only the bytes the devices acknowledged as synced, must
// read back the same as the source did before it closed. Every commit
// waited for durability, so nothing acknowledged may be missing.
func recoverAndCompare(spec engineSpec, clk clock, devs []*device, want uint64) error {
	logs := make([][]byte, len(devs))
	for i, dv := range devs {
		logs[i] = dv.synced()
	}
	sinks, _ := newDevices(spec, runOpts{}, clk, newDiscardDevice)
	d, _, err := openDB(spec, sinks)
	if err != nil {
		return err
	}
	defer d.close()
	if _, err := d.recoverLog(logs); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	got, _, err := d.checksum()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("checksum %016x, source had %016x", got, want)
	}
	return nil
}
