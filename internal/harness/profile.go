package harness

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
)

// StartProfiles starts the runtime profiles behind a command's -cpuprofile,
// -memprofile and -trace flags; an empty path leaves that profile off. The
// returned stop ends the CPU profile and the execution trace, writes the heap
// profile (after a GC, so it shows live memory, not garbage) and closes every
// file. It is idempotent: commands defer it and also call it before os.Exit,
// which runs no defers. On error nothing is left running or open.
func StartProfiles(cpuPath, memPath, tracePath string) (stop func(), err error) {
	var cpuFile, traceFile *os.File
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if traceFile != nil {
				trace.Stop()
				traceFile.Close()
			}
			if memPath != "" {
				if err := writeHeapProfile(memPath); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
			}
		})
	}
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
				cpuFile = nil
			}
		}
	}
	if err == nil && tracePath != "" {
		if traceFile, err = os.Create(tracePath); err == nil {
			if err = trace.Start(traceFile); err != nil {
				traceFile.Close()
				traceFile = nil
			}
		}
	}
	if err != nil {
		memPath = "" // a run that never started has no heap worth writing
		stop()
		return func() {}, err
	}
	return stop, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
