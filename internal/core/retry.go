package core

import (
	"time"

	"next700/internal/xrand"
)

// Tx.Run's transient-abort retry schedule. Backoff is bounded exponential
// with full jitter — the ceiling doubles per sleeping retry up to
// retryMaxDelay and the actual sleep is uniform in [0, ceiling) — drawn from
// the worker's deterministic RNG so a seeded run replays the same backoff
// schedule. The first retrySpinAttempts retries only yield the processor:
// short conflicts usually clear immediately and a timer would overshoot, so
// backoff stays off the fast path. A transaction that has not committed
// after retryMaxAttempts attempts fails with ErrLivelock.
const (
	retryMaxAttempts  = 1 << 20
	retrySpinAttempts = 4
	retryBaseDelay    = 2 * time.Microsecond
	retryMaxDelay     = 4 * time.Millisecond
)

// retryDelay returns the jittered backoff before retry attempt (1-based: the
// first retry is attempt 1). Spin attempts sleep zero. It allocates nothing.
func retryDelay(rng *xrand.RNG, attempt int) time.Duration {
	shift := attempt - retrySpinAttempts - 1
	if shift < 0 {
		return 0
	}
	ceiling := retryMaxDelay
	// 2^shift would overflow long before 63; past 30 doublings the base
	// has hit the cap.
	if shift < 30 {
		if c := retryBaseDelay << uint(shift); c < ceiling {
			ceiling = c
		}
	}
	return time.Duration(rng.Uint64n(uint64(ceiling)))
}
