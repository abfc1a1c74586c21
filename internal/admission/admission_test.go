package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"next700/internal/testutil"
)

func TestFastPathAdmits(t *testing.T) {
	c := New(Config{MaxInFlight: 2})
	if err := c.Acquire(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Acquire(0); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.InFlight != 2 || s.Admitted != 2 || s.Shed != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	c.Release(0)
	c.Release(0)
	if s := c.Snapshot(); s.InFlight != 0 {
		t.Fatalf("in-flight after release = %d", s.InFlight)
	}
}

func TestQueueWaitShedsWithinBound(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	c := New(Config{MaxInFlight: 1, MaxQueueWait: 30 * time.Millisecond})
	if err := c.Acquire(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := c.Acquire(0)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if elapsed < 20*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("shed after %v, want ~30ms", elapsed)
	}
	if s := c.Snapshot(); s.Shed != 1 || s.InFlight != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	c.Release(0)
}

func TestTxnDeadlineBoundsAcquire(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// No MaxQueueWait: the wait is bounded only by the transaction's own
	// deadline.
	c := New(Config{MaxInFlight: 1})
	if err := c.Acquire(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := c.Acquire(time.Now().Add(25 * time.Millisecond).UnixNano())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shed after %v, want ~25ms", elapsed)
	}
	c.Release(0)
}

func TestAIMDDecreasesAndRecovers(t *testing.T) {
	// TargetLatency 1ms adjusts at most every 2ms.
	cfg := Config{MaxInFlight: 16, TargetLatency: time.Millisecond}
	c := New(cfg)
	if c.Limit() != 16 {
		t.Fatalf("initial limit = %d", c.Limit())
	}
	// Sustained over-target latency decays the limit multiplicatively, by
	// aimdDecrease per adjustment, down to the floor of 1.
	prev := c.Limit()
	for i := 0; i < 40 && c.Limit() > 1; i++ {
		if err := c.Acquire(0); err != nil {
			t.Fatal(err)
		}
		c.Release(20 * time.Millisecond)
		if got := c.Limit(); got != prev && got != max(int(float64(prev)*aimdDecrease), 1) {
			t.Fatalf("limit %d -> %d, want a decrease by %v", prev, got, aimdDecrease)
		}
		prev = c.Limit()
		time.Sleep(3 * time.Millisecond)
	}
	if got := c.Limit(); got != 1 {
		t.Fatalf("limit after sustained overload = %d, want floor 1", got)
	}
	// Healthy latency recovers it additively, one slot per adjustment, to
	// the ceiling. The EWMA has ~5-sample memory, so a few fast samples
	// drain the overload estimate first.
	for i := 0; i < 200 && c.Limit() < cfg.MaxInFlight; i++ {
		if err := c.Acquire(0); err != nil {
			t.Fatal(err)
		}
		c.Release(50 * time.Microsecond)
		if got := c.Limit(); got != prev && got != prev+1 {
			t.Fatalf("limit %d -> %d, want an increase by 1", prev, got)
		}
		prev = c.Limit()
		time.Sleep(3 * time.Millisecond)
	}
	if got := c.Limit(); got != cfg.MaxInFlight {
		t.Fatalf("limit after recovery = %d, want %d", got, cfg.MaxInFlight)
	}
	if s := c.Snapshot(); s.InFlight != 0 {
		t.Fatalf("in-flight = %d after balanced acquire/release", s.InFlight)
	}
}

func TestConfigDefaults(t *testing.T) {
	if n := (Config{}).normalized(); n.MaxInFlight <= 0 {
		t.Fatalf("normalized zero config = %+v", n)
	}
	// The limit moves at most once per max(2 × TargetLatency, 1ms).
	if c := New(Config{TargetLatency: 5 * time.Millisecond}); c.adjustEvery != int64(10*time.Millisecond) {
		t.Fatalf("adjustment interval at a 5ms target = %v", time.Duration(c.adjustEvery))
	}
	if c := New(Config{TargetLatency: 100 * time.Microsecond}); c.adjustEvery != int64(time.Millisecond) {
		t.Fatalf("adjustment interval at a 100µs target = %v", time.Duration(c.adjustEvery))
	}
}

func TestConcurrentAcquireReleaseInvariants(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	c := New(Config{MaxInFlight: 4, MaxQueueWait: 5 * time.Millisecond})
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	var admittedN, shedN int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localA, localS := int64(0), int64(0)
			for i := 0; i < perG; i++ {
				if err := c.Acquire(0); err != nil {
					localS++
					continue
				}
				localA++
				c.Release(time.Microsecond)
			}
			mu.Lock()
			admittedN += localA
			shedN += localS
			mu.Unlock()
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.InFlight != 0 {
		t.Fatalf("in-flight = %d after all goroutines finished", s.InFlight)
	}
	if s.Admitted != uint64(admittedN) || s.Shed != uint64(shedN) {
		t.Fatalf("controller counted admitted=%d shed=%d, callers saw %d/%d",
			s.Admitted, s.Shed, admittedN, shedN)
	}
	if admittedN+shedN != goroutines*perG {
		t.Fatalf("outcomes %d+%d != attempts %d", admittedN, shedN, goroutines*perG)
	}
}
