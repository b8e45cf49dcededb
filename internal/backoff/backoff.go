// Package backoff computes retry delays for transient failures:
// exponential growth from a base delay, a hard cap, and proportional
// jitter so a fleet of retrying clients (remote workers hammering a
// briefly unavailable control plane, scheduler jobs hitting a flaky
// dependency) decorrelates instead of retrying in lockstep.
package backoff

import (
	"context"
	"math/rand"
	"time"
)

// Delay returns the wait before retry attempt (0-based): base·2^attempt
// with ±jitterFrac proportional jitter drawn from rnd, never more than
// max — the cap applies to the jittered value. A nil rnd uses the global
// math/rand source. Zero and negative inputs select safe defaults (100ms
// base, 30s max, no jitter).
func Delay(attempt int, base, max time.Duration, jitterFrac float64, rnd *rand.Rand) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if jitterFrac > 0 {
		var f float64
		if rnd != nil {
			f = rnd.Float64()
		} else {
			f = rand.Float64()
		}
		// Spread across [1-jitterFrac, 1+jitterFrac).
		d = time.Duration(float64(d) * (1 - jitterFrac + 2*jitterFrac*f))
	}
	if d < 0 {
		d = base
	}
	if d > max {
		d = max
	}
	return d
}

// Sleep waits for the attempt's delay or until ctx is canceled,
// reporting whether the full delay elapsed (false = canceled).
func Sleep(ctx context.Context, attempt int, base, max time.Duration, jitterFrac float64, rnd *rand.Rand) bool {
	t := time.NewTimer(Delay(attempt, base, max, jitterFrac, rnd))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
