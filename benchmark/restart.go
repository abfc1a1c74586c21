package main

import (
	"fmt"
	"runtime"
)

// buildLog is recover_replay's set-up: one worker commits n write-only
// transactions to an unthrottled device (group-commit window 0). It returns
// the log image and the source's checksum.
func buildLog(spec engineSpec, o runOpts, clk clock, n int) (log []byte, sum uint64, err error) {
	devs, _ := newDevices(spec, runOpts{}, clk, newMemDevice)
	d, _, err := openDB(spec, devs)
	if err != nil {
		return nil, 0, err
	}
	defer d.close()
	w := d.newWorker(0, o.seed)
	for i := 0; i < n; i++ {
		if err := w.runOne(); err != nil {
			return nil, 0, fmt.Errorf("log build txn %d: %w", i, err)
		}
	}
	sum, _, err = d.checksum()
	return devs[0].synced(), sum, err
}

// runRestart times restarts: a fresh engine, Workload.Setup, then
// Engine.Recover over the log built in set-up. The unit of work is the
// restart, so commit_p50_us here is load + replay — what a user waits for —
// and txn_per_s is log records replayed per second of Engine.Recover.
func runRestart(def *workloadDef, o runOpts, r *result) error {
	clk := newClock()
	spec := def.spec
	reps, warm := o.windows(def), warmWindows(def)

	// Set-up is the log build; every build of one seed gives the same log.
	var log []byte
	var want uint64
	var setupS []float64
	var err error
	for len(setupS) < setupReps {
		log = nil
		runtime.GC()
		t0 := clk.now()
		if log, want, err = buildLog(spec, o, clk, def.perWindow); err != nil {
			return err
		}
		setupS = append(setupS, seconds(clk.now()-t0))
	}
	r.putDist("setup_s", setupS)
	buf := newSpanBuf(0, o.spanCapacity(3*reps))
	sinks, _ := newDevices(spec, runOpts{}, clk, newDiscardDevice)

	var plain, withSpans series
	var loadS, replayS, rate, entryRate []float64
	var d *db
	for rep := -warm; rep < reps; rep++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
			d = nil
		}
		// A restart starts from an empty heap; collect the last engine so
		// that this one's load and replay see the same collector pacing
		// every time.
		runtime.GC()
		traced := o.trace && rep > 0 && rep%2 == 1
		t0 := clk.now()
		var load setupCost
		if d, load, err = openDB(spec, sinks); err != nil {
			return fmt.Errorf("restart %d: %w", rep, err)
		}
		t1 := clk.now()
		before := readMem() // allocations and collections are Recover's alone
		rec, err := d.recoverLog([][]byte{log})
		after := readMem()
		t2 := clk.now()
		if err != nil {
			return fmt.Errorf("restart %d: %w", rep, err)
		}
		if rec.records != def.perWindow {
			return fmt.Errorf("restart %d replayed %d records, log has %d", rep, rec.records, def.perWindow)
		}
		if rep < 0 {
			continue // warm-up restart
		}
		s := &plain
		if traced {
			p := buf.add(spanRecover, rep, -1, t0, t2)
			buf.add(spanSetup, rep, p, t0, t1)
			buf.add(spanRecoverLog, rep, p, t1, t2)
			s = &withSpans
		}
		replay := t2 - t1
		s.tps = append(s.tps, float64(rec.records)/seconds(replay))
		s.p50us = append(s.p50us, micros(t2-t0))
		s.addCounters(int64(rec.records), replay, before, after)
		loadS = append(loadS, load.load.Seconds())
		replayS = append(replayS, seconds(replay))
		rate = append(rate, load.rowsPerSec())
		entryRate = append(entryRate, float64(rec.entries)/seconds(replay))
	}

	plain.report(r, &withSpans)
	r.putDist("recover_txn_per_s", plain.tps)
	reportFailures(r, int64(reps*def.perWindow), 0) // a record that fails to apply ends the run above
	r.putDist("core.recover_load_s", loadS)
	r.putDist("core.recover_replay_s", replayS)
	r.putDist("core.recover_entries_per_s", entryRate)
	r.putDist("load_rows_per_s", rate)

	got, _, err := d.checksum()
	if err == nil && got != want {
		err = fmt.Errorf("checksum %016x, source had %016x", got, want)
	}
	r.check("recovered state matches source", err)
	if err := closeAndReportSpace(r, d, func() { d = nil }); err != nil {
		return err
	}
	return finishTrace(r, o, []*spanBuf{buf})
}
