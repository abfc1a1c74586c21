package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"next700/internal/core"
	"next700/internal/workload"
	"next700/internal/xrand"
)

// doraExecutor is E11's data-oriented runtime (Pandis et al., "Data-Oriented
// Transaction Execution", VLDB 2010): where thread-to-transaction lets any
// worker touch any record and pays concurrency control on every access, here
// each partition of the data is owned by exactly one goroutine, work is
// routed to the owner, and accesses inside a partition need no locks at all.
// The caller guarantees that work sent to a partition touches only that
// partition's data; the executor guarantees serial execution per partition.
type doraExecutor struct {
	queues []chan func()
	wg     sync.WaitGroup
}

// newDoraExecutor starts the owners of n partitions; depth bounds each
// owner's backlog.
func newDoraExecutor(n, depth int) *doraExecutor {
	e := &doraExecutor{queues: make([]chan func(), n)}
	for i := range e.queues {
		q := make(chan func(), depth)
		e.queues[i] = q
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for fn := range q {
				fn()
			}
		}()
	}
	return e
}

// exec runs fn on the owner of part and waits for it to finish.
func (e *doraExecutor) exec(part int, fn func()) {
	done := make(chan struct{})
	e.queues[part] <- func() { fn(); close(done) }
	<-done
}

// stop drains and terminates the owners.
func (e *doraExecutor) stop() {
	for _, q := range e.queues {
		close(q)
	}
	e.wg.Wait()
}

// e11Sweep compares data-oriented execution against thread-to-transaction
// on partition-local read-modify-write transactions under skew.
func e11Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 4, ReadRatio: 0, PartitionLocal: true}
	execs, thetas := []string{"DORA", "t2t/NO_WAIT", "t2t/SILO"}, []float64{0.6, 0.95}
	return gridSweep("e11", "E11: RMW tps, 8 workers, data-oriented (DORA) vs thread-to-transaction", [2]string{"execution", "theta"},
		execs, thetas, map[string]interface{}{"ycsb": ycfg, "workers": 8}, runCols,
		func(ex string, theta float64) (map[string]metric, error) {
			y := ycfg
			y.Theta = theta
			if ex == "DORA" {
				return doraRun(y, 8, a.Duration, a.Seed), nil
			}
			return a.measure(core.Config{Protocol: strings.TrimPrefix(ex, "t2t/"), Threads: 8, Partitions: 8}, workload.NewYCSB(y), 8)
		},
		func(s *sweepRun, c cells) {
			s.targetAt("dora_over_t2t_target", "DORA is above both thread-to-transaction engines", thetas,
				func(x float64) bool { return c.top(execs, x, "tps") == "DORA" })
			flat := c.v("DORA", 0.95, "tps") / c.v("DORA", 0.6, "tps")
			s.target("dora_flat_in_theta_target", flat >= 0.8 && flat <= 1.25,
				"DORA tps at theta 0.95 is %.2f of theta 0.6; target 0.8–1.25", flat)
		})
}

// doraRun drives partition-owned counters for d on parts workers: each
// sends its transactions — y.OpsPerTxn Zipfian keys of its home partition —
// to that partition's owner, which applies them without locks. There are no
// aborts and no per-transaction latencies to report.
func doraRun(y workload.YCSBConfig, parts int, d time.Duration, seed uint64) map[string]metric {
	counters := make([]int64, y.Records)
	ex := newDoraExecutor(parts, 256)
	var stop atomic.Bool
	var done atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for home := 0; home < parts; home++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zipf := xrand.NewZipf(xrand.New(seed+uint64(home)+1), y.Records/uint64(parts), y.Theta)
			keys := make([]uint64, y.OpsPerTxn)
			n := uint64(0)
			for ; !stop.Load(); n++ {
				for j := range keys {
					keys[j] = zipf.Next()*uint64(parts) + uint64(home)
				}
				ex.exec(home, func() {
					for _, k := range keys {
						counters[k]++
					}
				})
			}
			done.Add(n)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	ex.stop()
	return map[string]metric{"commits": count(done.Load()), "tps": perSec(float64(done.Load()) / elapsed.Seconds())}
}
