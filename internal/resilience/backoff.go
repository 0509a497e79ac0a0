package resilience

import (
	"context"
	"math/rand"
	"time"
)

// Backoff computes capped jittered exponential delays: each attempt
// doubles the delay, and each delay is randomized down by up to half, so
// 1s yields 0.5s..1s. The zero value is usable (100ms base, 10s cap).
type Backoff struct {
	// Base is the first delay (<= 0 defaults to 100ms).
	Base time.Duration
	// Max caps the delay (<= 0 defaults to 10s).
	Max time.Duration
	// Rand overrides the jitter source (tests); nil uses math/rand.
	Rand func() float64
}

// backoffFactor is the per-attempt multiplier; backoffJitter the fraction
// of each delay randomized away, de-synchronizing retry storms.
const (
	backoffFactor = 2
	backoffJitter = 0.5
)

// Delay returns the wait before retry number attempt (1-based; attempt <=
// 1 returns the jittered base).
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 10 * time.Second
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= backoffFactor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	rnd := b.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	d -= d * backoffJitter * rnd()
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Retry runs fn up to attempts times, sleeping b.Delay between failures,
// and returns the last error (nil on the first success). Context
// cancellation interrupts the wait and returns ctx.Err.
func Retry(ctx context.Context, attempts int, b Backoff, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= attempts {
			return lastErr
		}
		t := time.NewTimer(b.Delay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}
