package main

import (
	"sync"
	"testing"

	"next700/internal/xrand"
)

// TestDoraSerialPerPartition: unsynchronized per-partition counters are safe
// iff the executor runs each partition's work serially on its owner (the
// race lane is what gives this test its teeth).
func TestDoraSerialPerPartition(t *testing.T) {
	e := newDoraExecutor(4, 16)
	counters := make([]int, 4)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w + 1))
			for i := 0; i < per; i++ {
				part := rng.Intn(4)
				e.exec(part, func() { counters[part]++ })
			}
		}(w)
	}
	wg.Wait()
	e.stop()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != workers*per {
		t.Fatalf("lost increments: %d want %d", total, workers*per)
	}
}
