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

// TestSelectSweeps: -sweep resolves names against the one table; an unknown
// name lists the known ones, and -out takes one sweep.
func TestSelectSweeps(t *testing.T) {
	for _, tc := range []struct {
		names, out string
		n          int
		err        string
	}{
		{names: "wal", n: 1},
		{names: "e1, e9,recovery", n: 3},
		{names: "e2", out: "r.json", n: 1},
		{names: "e3", err: "unknown sweep \"e3\"; known: det,e1,e10,e11,e12,e14,e15,e2,e4,e5,e6,e7,e8,e9,overload,partition,recovery,verify,wal"},
		{names: "wal,", err: "unknown sweep \"\""},
		{names: "e1,e2", out: "r.json", err: "-out names one report"},
	} {
		picked, err := selectSweeps(tc.names, tc.out)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("-sweep %q -out %q: err = %v, want %q", tc.names, tc.out, err, tc.err)
			}
			continue
		}
		if err != nil || len(picked) != tc.n {
			t.Errorf("-sweep %q -out %q: %d sweeps, err %v; want %d", tc.names, tc.out, len(picked), err, tc.n)
		}
	}
}

// TestSweepsSmoke runs every sweep of the -sweep table at its smallest scale
// and holds its report to the one schema: the sweep's name, its axis names
// on every table row, every cell of its grid present, and no failed check.
// Performance targets may be missed at this scale; only checks gate.
func TestSweepsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke runs are not -short")
	}
	a := common{
		Threads: 2, Duration: 100 * time.Millisecond, Warmup: 10, Seed: 1,
		quick: true, partitions: 2, detBatch: 16, theta: 0.9,
		recover: recoverSweepOpts{Txns: 2000, Every: 100},
		cfg:     core.Config{Protocol: "SILO", Threads: 2},
		newWorkload: func() workload.Workload {
			return workload.NewYCSB(workload.YCSBConfig{Records: 4096, OpsPerTxn: 4})
		},
	}
	// Table rows per sweep: one per cell of its grid.
	cells := map[string]int{
		"wal": 3, "det": 4, "overload": 7, "partition": 5, "recovery": 4, "verify": 8,
		"e1": 32, "e2": 40, "e4": 48, "e5": 24, "e6": 32, "e7": 48, "e8": 3,
		"e9": 8, "e10": 18, "e11": 6, "e12": 3, "e14": 3, "e15": 6,
	}
	for name, build := range sweeps {
		t.Run(name, func(t *testing.T) {
			a := a
			a.recover.Dir = t.TempDir()
			if strings.HasPrefix(name, "e") {
				// Some 200 cells: the smoke proves each one runs and that
				// the simulator's exact checks hold, not a figure, so the
				// experiments run short and side by side (no experiment
				// check reads a clock).
				t.Parallel()
				a.Duration = 5 * time.Millisecond
			}
			sw := build(a)
			want, ok := cells[name]
			if !ok || sw.name != name {
				t.Fatalf("sweep %q (report %q) has no cell count here", name, sw.name)
			}
			out := filepath.Join(t.TempDir(), "BENCH.json")
			var stdout bytes.Buffer
			if err := runSweep(&stdout, out, sw); err != nil {
				t.Fatalf("%v\n%s", err, stdout.String())
			}
			rep := readReport(t, out)
			if rep.Sweep != name || len(rep.Params) == 0 {
				t.Errorf("sweep %q params %v", rep.Sweep, rep.Params)
			}
			seen := map[string]bool{}
			for _, r := range rep.Rows {
				if len(r.Cell) != len(sw.axes) {
					continue // a series under a cell
				}
				key, _ := json.Marshal(r.Cell)
				seen[string(key)] = true
				for _, axis := range sw.axes {
					if _, ok := r.Cell[axis]; !ok {
						t.Errorf("row %s lacks axis %q", key, axis)
					}
				}
				if len(r.Metrics) == 0 {
					t.Errorf("row %s has no metrics", key)
				}
			}
			if len(seen) != want {
				t.Errorf("%d distinct cells, want %d: %v", len(seen), want, seen)
			}
			if name == "partition" && !slices.ContainsFunc(rep.Checks, func(c check) bool { return c.Name == "readmitted_commit_durable" && c.OK }) {
				t.Errorf("no passing check readmitted_commit_durable in %+v", rep.Checks)
			}
		})
	}
}

// TestExperimentCatalogue holds the experiment catalogue to the evaluation
// suite: every -sweep entry builds a sweep reporting under its own name with
// a title, axes, columns and a run, and the experiments are exactly E1–E15
// less E3 (E2's abort_rate column) and the retired E13, each titled by its id.
func TestExperimentCatalogue(t *testing.T) {
	a := common{
		Threads: 2, Duration: time.Millisecond, quick: true, partitions: 2, detBatch: 16,
		cfg: core.Config{Protocol: "SILO", Threads: 2},
		newWorkload: func() workload.Workload {
			return workload.NewYCSB(workload.YCSBConfig{Records: 4096, OpsPerTxn: 4})
		},
	}
	var ids []string
	for name, build := range sweeps {
		sw := build(a)
		if sw.name != name || sw.title == "" || len(sw.axes) == 0 || len(sw.cols) == 0 || sw.run == nil {
			t.Errorf("-sweep %s builds an incomplete sweep: name %q title %q axes %v cols %v", name, sw.name, sw.title, sw.axes, sw.cols)
		}
		if !strings.HasPrefix(name, "e") {
			continue
		}
		id := strings.ToUpper(name)
		ids = append(ids, id)
		if !strings.HasPrefix(sw.title, id+":") && !strings.HasPrefix(sw.title, id+"/") {
			t.Errorf("experiment %s is titled %q", id, sw.title)
		}
		if id == "E2" && !slices.Contains(sw.cols, "abort_rate") {
			t.Errorf("E2 does not show E3's abort_rate: cols %v", sw.cols)
		}
	}
	slices.Sort(ids)
	if want := []string{"E1", "E10", "E11", "E12", "E14", "E15", "E2", "E4", "E5", "E6", "E7", "E8", "E9"}; !slices.Equal(ids, want) {
		t.Errorf("experiments %v, want %v", ids, want)
	}
}
