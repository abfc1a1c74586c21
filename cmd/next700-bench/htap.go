package main

import (
	"fmt"
	"strings"
	"time"

	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/stats"
	"next700/internal/storage"
)

// e15Sweep is the HTAP extension experiment: one analytical worker
// repeatedly scans and aggregates the whole table while OLTP workers update
// hot rows. The question the keynote raises — can fresh data be analyzed
// without strangling the transactional side? — becomes a concrete
// comparison: multi-version reads let scans run against a consistent
// snapshot without blocking or aborting writers, single-version lock-based
// scans serialize against them, and OCC scans abort when any scanned row
// moves.
func e15Sweep(a common) sweep {
	const oltpWorkers = 3
	records := uint64(16 * 1024)
	if a.quick {
		records = 4 * 1024
	}
	configs := []string{"MVCC/serializable", "MVCC/snapshot", "NO_WAIT", "WAIT_DIE", "SILO", "TICTOC"}
	return gridSweep("e15", fmt.Sprintf("E15: HTAP, full-table scans concurrent with OLTP updates (%d writers + 1 scanner)", oltpWorkers),
		[2]string{"protocol", "records"}, configs, []float64{float64(records)},
		map[string]interface{}{"oltp_workers": oltpWorkers, "scanners": 1, "hot_fraction": 1.0 / 16},
		[]string{"oltp_tps", "oltp_abort_rate", "scans_per_s", "scan_p99_ms", "scan_abort_rate"},
		func(name string, _ float64) (map[string]metric, error) {
			proto, iso, _ := strings.Cut(name, "/")
			wl := &htap{records: records, scanner: oltpWorkers, scanHist: stats.NewHistogram()}
			r, err := harness.Run(core.Config{Protocol: proto, Isolation: iso, Threads: oltpWorkers + 1}, wl,
				harness.RunOptions{Duration: a.Duration, Seed: a.Seed})
			oltp := stats.Counter{Commits: r.Commits - wl.scans.Commits, Aborts: r.Aborts - wl.scans.Aborts}
			elapsed := r.Elapsed.Seconds()
			return map[string]metric{
				"oltp_tps":        perSec(float64(oltp.Commits) / elapsed),
				"oltp_abort_rate": ratio(oltp.AbortRate()),
				"scans_per_s":     perSec(float64(wl.scans.Commits) / elapsed),
				"scan_p99_ms":     ms(time.Duration(wl.scanHist.Percentile(99))),
				"scan_abort_rate": ratio(wl.scans.AbortRate()),
			}, err
		},
		func(s *sweepRun, c cells) {
			v := func(name, metric string) float64 { return c.v(name, float64(records), metric) }
			// seen is each configuration's OLTP tps and aborts and its scan aborts.
			seen := func(names ...string) (d string) {
				for _, n := range names {
					d += fmt.Sprintf("%s %.0f tps, aborts %.3f, scan aborts %.3f; ", n, v(n, "oltp_tps"), v(n, "oltp_abort_rate"), v(n, "scan_abort_rate"))
				}
				return d
			}
			snap := v("MVCC/snapshot", "oltp_tps")
			s.target("mvcc_serves_both_sides_target", all(configs[:2], func(n string) bool { return v(n, "scan_abort_rate") == 0 && v(n, "oltp_abort_rate") < 0.01 }),
				"MVCC scans never abort and its writers abort < 1%%: %s", seen(configs[:2]...))
			s.target("lock_scans_unstable_target", all(configs[2:4], func(n string) bool { return v(n, "scan_abort_rate") > 0 || v(n, "oltp_tps") < snap/10 }),
				"lock-based scans abort or starve writers below 10%% of MVCC/snapshot's: %s", seen(configs[2:4]...))
			s.target("occ_sacrifices_scans_target", all(configs[4:], func(n string) bool { return v(n, "scan_abort_rate") > 0 && v(n, "oltp_tps") > snap }),
				"OCC writers outrun MVCC/snapshot's %.0f tps and their scans abort: %s", snap, seen(configs[4:]...))
		})
}

// htap is E15's cell as a workload: worker scanner (by ThreadID) runs
// full-table aggregations and records its own outcomes; every other worker
// runs short read-modify-writes over the hottest sixteenth of the rows.
type htap struct {
	records  uint64
	scanner  int
	tbl      *core.Table
	sch      *storage.Schema
	scans    stats.Counter // the scanner's commits and aborts
	scanHist *stats.Histogram
}

func (w *htap) Name() string { return "htap" }

func (w *htap) Setup(e *core.Engine) error {
	w.sch = storage.MustSchema("facts", storage.I64("v"))
	tbl, err := e.CreateTable(w.sch, core.IndexBTree)
	if err != nil {
		return err
	}
	w.tbl = tbl
	row := w.sch.NewRow()
	w.sch.SetInt64(row, 0, 1)
	for k := uint64(0); k < w.records; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			return err
		}
	}
	return nil
}

func (w *htap) RunOne(tx *core.Tx) error {
	if tx.ThreadID() != w.scanner {
		k := tx.RNG().Uint64n(w.records / 16)
		return tx.Run(func(tx *core.Tx) error {
			r, err := tx.Update(w.tbl, k)
			if err == nil {
				w.sch.SetInt64(r, 0, w.sch.GetInt64(r, 0)+1)
			}
			return err
		})
	}
	before := *tx.Counter()
	t0 := time.Now()
	err := tx.Run(func(tx *core.Tx) error {
		var sum int64
		return tx.Scan(w.tbl, 0, w.records, func(_ uint64, r storage.Row) bool {
			sum += w.sch.GetInt64(r, 0)
			return true
		})
	})
	w.scanHist.RecordDuration(time.Since(t0))
	w.scans.Commits += tx.Counter().Commits - before.Commits
	w.scans.Aborts += tx.Counter().Aborts - before.Aborts
	return err
}
