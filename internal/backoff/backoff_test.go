package backoff

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestDelayDoublesUpToTheCap(t *testing.T) {
	const base, max = 100 * time.Millisecond, time.Second
	want := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for attempt, w := range want {
		if got := Delay(attempt, base, max, 0, nil); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	// Far past the cap: no overflow, still the cap.
	if got := Delay(500, base, max, 0, nil); got != max {
		t.Errorf("Delay(500) = %v, want %v", got, max)
	}
	// A base above the cap is capped on the first attempt too.
	if got := Delay(0, 5*time.Second, max, 0, nil); got != max {
		t.Errorf("Delay(0, base > max) = %v, want %v", got, max)
	}
}

// TestDelayCapHoldsUnderJitter: the cap is hard — jitter spreads delays
// below it, never above (Delay(10, 100ms, 1s, 0.5, rnd) used to reach
// 1.5s because the jitter was applied after the clamp).
func TestDelayCapHoldsUnderJitter(t *testing.T) {
	const base, max = 100 * time.Millisecond, time.Second
	rnd := rand.New(rand.NewSource(1))
	below := false
	for i := 0; i < 1000; i++ {
		d := Delay(10, base, max, 0.5, rnd)
		if d > max {
			t.Fatalf("capped delay with jitter = %v, exceeds the %v cap", d, max)
		}
		if d < max/2 {
			t.Fatalf("capped delay with jitter = %v, below the jitter floor %v", d, max/2)
		}
		below = below || d < max
	}
	if !below {
		t.Error("jitter never spread a capped delay below the cap")
	}
	// Below the cap, jitter spreads both ways around the nominal delay.
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for i := 0; i < 1000; i++ {
		d := Delay(1, base, max, 0.2, rnd) // nominal 200ms
		if d < 160*time.Millisecond || d >= 240*time.Millisecond {
			t.Fatalf("jittered delay = %v, outside [160ms, 240ms)", d)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo >= 200*time.Millisecond || hi <= 200*time.Millisecond {
		t.Errorf("jitter one-sided: observed [%v, %v] around 200ms", lo, hi)
	}
}

func TestDelayDefaults(t *testing.T) {
	if got := Delay(0, 0, 0, 0, nil); got != 100*time.Millisecond {
		t.Errorf("zero base = %v, want the 100ms default", got)
	}
	if got := Delay(3, -time.Second, -time.Second, -1, nil); got != 800*time.Millisecond {
		t.Errorf("negative inputs = %v, want 800ms (default base, no jitter)", got)
	}
	if got := Delay(100, 0, 0, 0, nil); got != 30*time.Second {
		t.Errorf("zero max = %v, want the 30s default cap", got)
	}
	// nil rnd with jitter draws from the global source and stays in range.
	if got := Delay(0, time.Second, 0, 0.5, nil); got < 500*time.Millisecond || got >= 1500*time.Millisecond {
		t.Errorf("global-source jitter = %v, outside [0.5s, 1.5s)", got)
	}
}

func TestSleep(t *testing.T) {
	if !Sleep(context.Background(), 0, time.Millisecond, time.Millisecond, 0, nil) {
		t.Error("Sleep on a live context reported cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if Sleep(ctx, 0, time.Minute, time.Minute, 0, nil) {
		t.Error("Sleep on a canceled context reported a full delay")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("Sleep on a canceled context blocked %v", waited)
	}
}
