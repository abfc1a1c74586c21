// next700-sim runs one point of the deterministic many-core discrete-event
// simulator: the substitute for the 1000-core hardware simulators used by the
// published design-space studies. Results are exactly reproducible. The
// all-protocols core-count sweep is E7, `next700-bench -sweep e7`.
//
// Usage:
//
//	next700-sim -protocol SILO -cores 1024 -theta 0.8
package main

import (
	"flag"
	"fmt"
	"os"

	"next700/internal/sim"
)

func main() {
	var (
		protocol = flag.String("protocol", "SILO", "protocol")
		cores    = flag.Int("cores", 64, "simulated cores")
		records  = flag.Uint64("records", 1<<16, "keyspace size")
		theta    = flag.Float64("theta", 0.6, "zipf skew")
		ops      = flag.Int("ops", 16, "accesses per txn")
		writes   = flag.Float64("writes", 0.5, "write fraction")
		horizon  = flag.Uint64("horizon", 2_000_000, "virtual measurement window in cycles")
		deadline = flag.Uint64("deadline", 0, "per-transaction deadline in virtual cycles: blocked or retrying transactions past it are abandoned as deadline aborts (0 = unbounded waits)")
		seed     = flag.Uint64("seed", 0x51D, "seed")
	)
	flag.Parse()

	r, err := sim.Run(sim.Config{
		Protocol: *protocol, Cores: *cores, Records: *records, Theta: *theta,
		OpsPerTxn: *ops, WriteRatio: *writes, Horizon: *horizon, Seed: *seed,
		Partitions: *cores, Deadline: *deadline,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(r)
	fmt.Printf("  commits=%d aborts=%d window=%d cycles\n", r.Commits, r.Aborts, r.Makespan)
	if *deadline > 0 {
		fmt.Printf("  deadline_aborts=%d\n", r.DeadlineAborts)
	}
	fmt.Printf("  latency cycles: p50=%d p90=%d p99=%d p99.9=%d\n",
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "next700-sim: "+format+"\n", args...)
	os.Exit(1)
}
