package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"next700/internal/core"
	"next700/internal/workload"
)

// fakeSweep is a two-cell sweep with fixed metrics, one passing check and one
// missed target; failing adds a failed check.
func fakeSweep(failing bool) sweep {
	return sweep{
		name:   "fake",
		title:  "fake sweep, 2 cells",
		params: map[string]interface{}{"protocol": "SILO", "threads": 2},
		axes:   []string{"streams"},
		cols:   []string{"tps", "p50_ms", "a_rather_long_metric_name"},
		run: func(s *sweepRun) error {
			s.row(map[string]interface{}{"streams": 1}, map[string]metric{
				"tps": perSec(1234.5), "p50_ms": ms(1500 * time.Microsecond), "commits": count(617),
			})
			s.row(map[string]interface{}{"streams": 2}, map[string]metric{
				"tps": perSec(2000), "p50_ms": ms(250 * time.Microsecond), "a_rather_long_metric_name": ratio(0.125),
			})
			s.detail(map[string]interface{}{"streams": 2, "offset_ms": 10.0}, map[string]metric{"limit": count(8)})
			s.check("digest_stable", true, "digest %s", "abc")
			s.target("speedup_target", false, "%.2fx of %.1fx", 1.62, 2.0)
			if failing {
				s.check("aborts_zero", false, "%d aborts", 3)
			}
			return nil
		},
	}
}

const fakeStdout = `next700-bench: fake sweep, 2 cells
  streams      tps          p50_ms       a_rather_long_metric_name
  1            1234         1.5          -
  2            2000         0.25         0.125
  digest_stable: ok (digest abc)
  speedup_target: WARNING, target missed (1.62x of 2.0x)
  report: OUT
`

const fakeJSON = `{
  "sweep": "fake",
  "params": {
    "protocol": "SILO",
    "threads": 2
  },
  "rows": [
    {
      "cell": {
        "streams": 1
      },
      "metrics": {
        "commits": {
          "value": 617,
          "unit": "count"
        },
        "p50_ms": {
          "value": 1.5,
          "unit": "ms"
        },
        "tps": {
          "value": 1234.5,
          "unit": "txn/s"
        }
      }
    },
    {
      "cell": {
        "streams": 2
      },
      "metrics": {
        "a_rather_long_metric_name": {
          "value": 0.125,
          "unit": "ratio"
        },
        "p50_ms": {
          "value": 0.25,
          "unit": "ms"
        },
        "tps": {
          "value": 2000,
          "unit": "txn/s"
        }
      }
    },
    {
      "cell": {
        "offset_ms": 10,
        "streams": 2
      },
      "metrics": {
        "limit": {
          "value": 8,
          "unit": "count"
        }
      }
    }
  ],
  "checks": [
    {
      "name": "digest_stable",
      "ok": true,
      "detail": "digest abc"
    },
    {
      "name": "speedup_target",
      "ok": false,
      "detail": "1.62x of 2.0x"
    }
  ]
}
`

// TestRunSweepGolden pins the runner's two outputs byte for byte: the table
// and checks on stdout, and the one report shape on disk. A missed target
// warns and does not fail the run.
func TestRunSweepGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	var stdout bytes.Buffer
	if err := runSweep(&stdout, out, fakeSweep(false)); err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(stdout.String(), out, "OUT"); got != fakeStdout {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, fakeStdout)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != fakeJSON {
		t.Errorf("report:\n%s\nwant:\n%s", got, fakeJSON)
	}
}

// TestRunSweepFailedCheck: a failed check fails the run by name, after the
// report — failed check included — is on disk.
func TestRunSweepFailedCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	var stdout bytes.Buffer
	err := runSweep(&stdout, out, fakeSweep(true))
	if err == nil || !strings.Contains(err.Error(), "aborts_zero") || strings.Contains(err.Error(), "speedup_target") {
		t.Fatalf("err = %v, want one naming aborts_zero only", err)
	}
	if !strings.Contains(stdout.String(), "aborts_zero: FAILED (3 aborts)") {
		t.Errorf("stdout does not show the failed check:\n%s", stdout.String())
	}
	rep := readReport(t, out)
	if n := len(rep.Checks); n != 3 || rep.Checks[2].Name != "aborts_zero" || rep.Checks[2].OK {
		t.Errorf("report checks = %+v", rep.Checks)
	}
}

// TestRunSweepStoppedEarly: a sweep that cannot finish reports why and
// writes nothing.
func TestRunSweepStoppedEarly(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	sw := fakeSweep(false)
	sw.run = func(*sweepRun) error { return errors.New("device on fire") }
	err := runSweep(&bytes.Buffer{}, out, sw)
	if err == nil || !strings.Contains(err.Error(), "device on fire") {
		t.Fatalf("err = %v", err)
	}
	if _, serr := os.Stat(out); serr == nil {
		t.Error("a report was written for a sweep that did not finish")
	}
}

// TestRunSweepExtend: an extending sweep (-allocs) keeps the rows of an
// earlier report of the same sweep and restarts a foreign or corrupt file.
func TestRunSweepExtend(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	sw := fakeSweep(false)
	sw.extend = true
	for want := 3; want <= 6; want += 3 {
		if err := runSweep(&bytes.Buffer{}, out, sw); err != nil {
			t.Fatal(err)
		}
		if n := len(readReport(t, out).Rows); n != want {
			t.Fatalf("%d rows, want %d", n, want)
		}
	}
	if err := os.WriteFile(out, []byte(`[{"workload":"ycsb"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(&bytes.Buffer{}, out, sw); err != nil {
		t.Fatal(err)
	}
	if n := len(readReport(t, out).Rows); n != 3 {
		t.Fatalf("%d rows after a foreign file, want 3", n)
	}
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s is not the one report schema: %v", path, err)
	}
	return rep
}

// TestSweepsSmoke runs each real sweep at its smallest scale and holds its
// report to the one schema: the sweep's name, its axis names on every
// table row, every cell present, and no failed check. Performance targets
// may be missed at this scale; only checks gate.
func TestSweepsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke runs are not -short")
	}
	c := common{Threads: 2, Duration: 100 * time.Millisecond, Warmup: 10, Seed: 1}
	ycsb := func() workload.Workload {
		return workload.NewYCSB(workload.YCSBConfig{Records: 4096, OpsPerTxn: 4})
	}
	for _, tc := range []struct {
		sw    sweep
		cells int    // table rows: one per cell
		check string // a check the report must carry, by name
	}{
		{sw: walSweep(c), cells: 3},
		{sw: detSweep(c, 16, 0.9), cells: 4},
		{sw: overloadSweep(c, core.Config{Protocol: "SILO", Threads: c.Threads}, ycsb, 0), cells: 7},
		{sw: partitionSweep(c, 2), cells: 5, check: "readmitted_commit_durable"},
		{sw: recoverSweep(c, recoverSweepOpts{Txns: 2000, Every: 100, Dir: t.TempDir()}), cells: 4},
	} {
		tc := tc
		t.Run(tc.sw.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH.json")
			var stdout bytes.Buffer
			if err := runSweep(&stdout, out, tc.sw); err != nil {
				t.Fatalf("%v\n%s", err, stdout.String())
			}
			rep := readReport(t, out)
			if rep.Sweep != tc.sw.name || len(rep.Params) == 0 {
				t.Errorf("sweep %q params %v", rep.Sweep, rep.Params)
			}
			seen := map[string]bool{}
			for _, r := range rep.Rows {
				if len(r.Cell) != len(tc.sw.axes) {
					continue // a series under a cell
				}
				key, _ := json.Marshal(r.Cell)
				seen[string(key)] = true
				for _, axis := range tc.sw.axes {
					if _, ok := r.Cell[axis]; !ok {
						t.Errorf("row %s lacks axis %q", key, axis)
					}
				}
				if len(r.Metrics) == 0 {
					t.Errorf("row %s has no metrics", key)
				}
			}
			if len(seen) != tc.cells {
				t.Errorf("%d distinct cells, want %d: %v", len(seen), tc.cells, seen)
			}
			if tc.check != "" && !slices.ContainsFunc(rep.Checks, func(c check) bool { return c.Name == tc.check && c.OK }) {
				t.Errorf("no passing check %q in %+v", tc.check, rep.Checks)
			}
		})
	}
}
