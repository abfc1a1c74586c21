package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"next700/internal/core"
	"next700/internal/verify"
	"next700/internal/workload"
)

func TestRunFixedCount(t *testing.T) {
	r, err := Run(core.Config{Protocol: "SILO", Threads: 2},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{Threads: 2, TxnsPerWorker: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Commits != 200 {
		t.Fatalf("commits %d", r.Commits)
	}
	if r.Latency.Count != 200 {
		t.Fatalf("latency samples %d", r.Latency.Count)
	}
	if r.Tps <= 0 || r.Protocol != "SILO" || r.Workload != "ycsb" {
		t.Fatalf("bad result: %+v", r)
	}
	if !strings.Contains(r.String(), "SILO") {
		t.Fatal("result String missing protocol")
	}
}

func TestRunDurationMode(t *testing.T) {
	r, err := Run(core.Config{Protocol: "NO_WAIT", Threads: 2},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{Threads: 2, Duration: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Commits == 0 {
		t.Fatal("no commits in duration mode")
	}
	if r.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed %v below duration", r.Elapsed)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	r, err := Run(core.Config{Protocol: "SILO", Threads: 1},
		workload.NewYCSB(workload.YCSBConfig{Records: 512, OpsPerTxn: 2}),
		RunOptions{Threads: 1, TxnsPerWorker: 50, WarmupTxns: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Commits != 50 {
		t.Fatalf("warmup leaked into counters: %d commits", r.Commits)
	}
}

func TestRunBadConfig(t *testing.T) {
	_, err := Run(core.Config{Protocol: "NOPE"},
		workload.NewYCSB(workload.YCSBConfig{Records: 64}), RunOptions{TxnsPerWorker: 1})
	if err == nil {
		t.Fatal("bad protocol accepted")
	}
}

// TestRunVerifyProbe: a Verify run with the stamped probe produces a checked
// report covering every transaction, including warmup; without Verify, no
// report exists.
func TestRunVerifyProbe(t *testing.T) {
	r, err := Run(core.Config{Protocol: "SILO", Threads: 2},
		verify.NewProbe(verify.ProbeConfig{Keys: 8}),
		RunOptions{Threads: 2, TxnsPerWorker: 50, WarmupTxns: 10, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Verification
	if rep == nil {
		t.Fatal("Verify run produced no report")
	}
	if want := 2 * (50 + 10); rep.Txns != want {
		t.Fatalf("report covers %d txns, want %d (warmup included)", rep.Txns, want)
	}
	if !rep.Ok() {
		t.Fatalf("anomalies on SILO: %v", rep.Anomalies)
	}

	r, err = Run(core.Config{Protocol: "SILO", Threads: 2},
		verify.NewProbe(verify.ProbeConfig{Keys: 8}),
		RunOptions{Threads: 2, TxnsPerWorker: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verification != nil {
		t.Fatal("report present without Verify")
	}
}

// TestRunVerifyRequiresRecordable: Verify on a workload that cannot record
// is a setup error, not a silent no-op.
func TestRunVerifyRequiresRecordable(t *testing.T) {
	_, err := Run(core.Config{Protocol: "SILO", Threads: 1},
		workload.NewYCSB(workload.YCSBConfig{Records: 64}),
		RunOptions{TxnsPerWorker: 1, Verify: true})
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("non-recordable workload accepted for Verify: err=%v", err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Bench == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if ByID("E7") == nil || ByID("E7").ID != "E7" {
		t.Fatal("ByID broken")
	}
	if ByID("E99") != nil {
		t.Fatal("ByID invented an experiment")
	}
}

// TestExperimentsQuick smoke-runs every experiment at quick scale and
// checks each emits a table mentioning its id.
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID+":") {
				t.Fatalf("%s output missing header:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "---") {
				t.Fatalf("%s output has no table:\n%s", e.ID, out)
			}
		})
	}
}
