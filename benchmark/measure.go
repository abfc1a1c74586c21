package main

// What the three workload drivers share: the window barrier, the runtime
// counters read around windows, the per-window sample series, and the
// report functions that turn them into named metrics.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// newDevices builds the log devices spec needs, each with its own span
// buffer (the WAL drives each device from its own flusher goroutine).
func newDevices(spec engineSpec, o runOpts, clk clock, mk func(uint64, clock, *spanBuf) *device) ([]*device, []*spanBuf) {
	n := 0
	switch spec.log {
	case logSingle:
		n = 1
	case logStreams:
		n = spec.workers
	}
	devs := make([]*device, n)
	bufs := make([]*spanBuf, n)
	for i := range devs {
		// Worker ids are 0..W-1; devices follow.
		bufs[i] = newSpanBuf(spec.workers+i, o.spanCapacity(1<<16))
		devs[i] = mk(o.seed+uint64(i), clk, bufs[i])
	}
	return devs, bufs
}

// gang is W persistent worker goroutines released together once per window
// and awaited together at its end: the barrier between windows. A panic in
// engine code on a worker ends the process, as it would a user's.
type gang struct {
	start []chan struct{}
	done  sync.WaitGroup
	clk   clock
}

// newGang starts n workers; each runs body(id) once per window until stop.
func newGang(n int, clk clock, body func(id int)) *gang {
	g := &gang{start: make([]chan struct{}, n), clk: clk}
	for id := range g.start {
		g.start[id] = make(chan struct{})
		go func() {
			for range g.start[id] {
				body(id)
				g.done.Done()
			}
		}()
	}
	return g
}

// window runs one window and returns its wall time in ns.
func (g *gang) window() int64 {
	g.done.Add(len(g.start))
	t0 := g.clk.now()
	for _, c := range g.start {
		c <- struct{}{}
	}
	g.done.Wait()
	return g.clk.now() - t0
}

func (g *gang) stop() {
	for _, c := range g.start {
		close(c)
	}
}

// setupReps is how many times a run sets up. setup_s and load_rows_per_s
// are medians over the repetitions: one load is a few hundred milliseconds
// of page faults and zeroing, and a single sample of that follows whatever
// else the host is doing.
const setupReps = 3

// setUp opens and loads spec's engine setupReps times, each from a collected
// heap as a process start would, and keeps the last one for measuring.
func setUp(r *result, spec engineSpec, o runOpts, clk clock) (*db, []*device, []*spanBuf, error) {
	var secs, rate []float64
	for {
		runtime.GC()
		t0 := clk.now()
		devs, bufs := newDevices(spec, o, clk, newModelledDevice)
		d, cost, err := openDB(spec, devs)
		if err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, seconds(clk.now()-t0))
		rate = append(rate, cost.rowsPerSec())
		if len(secs) == setupReps {
			r.putDist("setup_s", secs)
			r.putDist("load_rows_per_s", rate)
			return d, devs, bufs, nil
		}
		if err := d.close(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// memSample is the runtime's allocation and GC counters at one instant,
// read outside windows.
type memSample struct {
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{mallocs: m.Mallocs, gcs: m.NumGC, pauseNs: m.PauseTotalNs}
}

// heap forces a collection and returns the bytes of live objects and the
// bytes of in-use spans (live objects plus the fragmentation around them).
func heap() (live, inuse uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.HeapInuse
}

// series collects per-window samples. A traced run alternates untraced and
// traced windows on one engine, so both series see the same database growth
// and their throughput ratio is the tracing overhead; end-to-end numbers
// come from the untraced series only.
type series struct {
	tps, p50us, p99us []float64
	txns              int64
	wallNs            int64
	mem               memSample // deltas summed over the windows
}

// add records one window: txns completed in wallNs, their latencies (sorted
// in place), and the runtime counters around it.
func (s *series) add(txns int64, wallNs int64, lat []int64, before, after memSample) {
	slices.Sort(lat)
	s.tps = append(s.tps, float64(txns)/seconds(wallNs))
	s.p50us = append(s.p50us, micros(lat[len(lat)/2]))
	if len(lat) >= p99Samples {
		s.p99us = append(s.p99us, micros(p99(lat)))
	}
	s.addCounters(txns, wallNs, before, after)
}

func (s *series) addCounters(txns int64, wallNs int64, before, after memSample) {
	s.txns += txns
	s.wallNs += wallNs
	s.mem.mallocs += after.mallocs - before.mallocs
	s.mem.gcs += after.gcs - before.gcs
	s.mem.pauseNs += after.pauseNs - before.pauseNs
}

// report emits the metrics every workload shares.
func (s *series) report(r *result, traced *series) {
	r.putDist("txn_per_s", s.tps)
	r.putDist("commit_p50_us", s.p50us)
	if len(s.p99us) > 0 {
		r.putDist("commit_p99_us", s.p99us)
	}
	r.put("allocs_per_txn", float64(s.mem.mallocs)/float64(s.txns))
	r.put("runtime.gc_cycles_per_mtxn", float64(s.mem.gcs)/float64(s.txns)*1e6)
	r.put("runtime.gc_pause_ms_per_s", float64(s.mem.pauseNs)/1e6/seconds(s.wallNs))
	if len(traced.tps) > 0 {
		r.put("trace.overhead_ratio", summarize(s.tps).med/summarize(traced.tps).med)
	}
}

// reportFailures sets the result line's counts and failed_ratio.
func reportFailures(r *result, attempted, failed int64) {
	r.Attempted, r.Failed = attempted, failed
	r.put("failed_ratio", float64(failed)/float64(attempted))
	if failed > 0 {
		r.check("no operation fails", fmt.Errorf("%d of %d failed", failed, attempted))
	}
}

// closeAndReportSpace measures the heap with the loaded engine live, closes
// the engine, has drop release the caller's references to it, and measures
// again: the difference is what the engine holds, whatever else the
// benchmark itself keeps (latency arrays, span buffers, the log image).
// space_amp counts live bytes, which repeat to a fraction of a percent;
// in-use spans add fragmentation that moves by 5 % between runs and are
// reported beside it.
func closeAndReportSpace(r *result, d *db, drop func()) error {
	live, inuse := heap()
	data := d.dataBytes()
	closeErr := d.close()
	drop()
	liveAfter, _ := heap()
	if live <= liveAfter {
		return errors.New("engine heap not released: a reference outlives close")
	}
	r.put("space_amp", float64(live-liveAfter)/float64(data))
	r.put("runtime.heap_inuse_mb", float64(inuse)/(1<<20))
	r.check("engine close", closeErr)
	return nil
}

// reportCounts emits the engine's operation counters per completed
// transaction. With one worker they repeat exactly run to run.
func reportCounts(r *result, c opCounts, txns int64) {
	per := func(n uint64) float64 { return float64(n) / float64(txns) }
	r.put("core.aborts_per_commit", float64(c.aborts)/float64(max(c.commits, 1)))
	r.put("core.reads_per_txn", per(c.reads))
	r.put("core.writes_per_txn", per(c.writes))
	r.put("core.inserts_per_txn", per(c.inserts))
	r.put("core.scans_per_txn", per(c.scans))
	r.put("core.lock_waits_per_txn", per(c.lockWaits))
	r.put("core.user_aborts_per_txn", per(c.userAborts))
}

// reportDevice emits what the WAL did to its devices over the measured
// windows, and from the traced windows' spans what a Sync costs here.
func reportDevice(r *result, c deviceCounts, commits int64, tracedWallNs int64, bufs []*spanBuf) {
	r.put("log_bytes_per_txn", float64(c.bytes)/float64(commits))
	r.put("device.syncs_per_commit", float64(c.syncs)/float64(commits))
	r.put("device.bytes_per_sync", float64(c.bytes)/float64(max(c.syncs, 1)))
	var syncs []int64
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.name == spanDeviceSync {
				syncs = append(syncs, s.end-s.start)
			}
		}
	}
	if len(syncs) > 0 {
		slices.Sort(syncs)
		r.put("device.sync_p50_us", micros(syncs[len(syncs)/2]))
		r.put("device.busy_ratio", float64(c.busy)/float64(tracedWallNs)/float64(len(bufs)))
	}
}

// finishTrace writes the span file and emits trace.spans.
func finishTrace(r *result, o runOpts, bufs []*spanBuf) error {
	if !o.trace {
		return nil
	}
	path, n, err := writeTrace(o.traceDir, r.Workload, o.seed, bufs)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	r.put("trace.spans", float64(n))
	r.checks = append(r.checks, fmt.Sprintf("trace %s (%d spans)", path, n))
	self := selfTime(bufs)
	for _, name := range spanNames {
		if t, ok := self[name]; ok {
			r.checks = append(r.checks, fmt.Sprintf("  self time %-18s %9.3f s", name, seconds(t)))
		}
	}
	return nil
}
