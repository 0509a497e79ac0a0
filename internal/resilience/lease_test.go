package resilience

import (
	"testing"
	"time"
)

// fakeClock is a hand-cranked time source for lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLeaseExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLease(3*time.Second, clk.now)

	if l.Expired() {
		t.Fatal("fresh lease already expired")
	}
	if got := l.Remaining(); got != 3*time.Second {
		t.Fatalf("fresh lease remaining = %v, want 3s", got)
	}
	if got := l.TTL(); got != 3*time.Second {
		t.Fatalf("TTL = %v, want 3s", got)
	}

	clk.advance(2999 * time.Millisecond)
	if l.Expired() {
		t.Fatal("lease expired 1ms early")
	}

	// Expiry is inclusive: exactly at TTL the lease is gone.
	clk.advance(time.Millisecond)
	if !l.Expired() {
		t.Fatal("lease still alive at exactly TTL")
	}
	if got := l.Remaining(); got != 0 {
		t.Fatalf("remaining at expiry = %v, want 0", got)
	}
}

func TestLeaseRenew(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLease(3*time.Second, clk.now)

	// Heartbeats keep the lease alive indefinitely: renew every 1s (the
	// suggested TTL/3 cadence) across several would-be expiries.
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		if l.Expired() {
			t.Fatalf("lease expired on beat %d despite renewals", i)
		}
		l.Renew()
		if got := l.Remaining(); got != 3*time.Second {
			t.Fatalf("beat %d: remaining after renew = %v, want 3s", i, got)
		}
	}

	// Stop heartbeating: the lease lapses one TTL after the last renewal.
	clk.advance(3 * time.Second)
	if !l.Expired() {
		t.Fatal("lease survived a full TTL without renewal")
	}

	// A late renewal resurrects it — the router may have already ejected
	// the member, but the lease itself is just a clock.
	l.Renew()
	if l.Expired() {
		t.Fatal("renewed lease still expired")
	}
}

func TestLeaseNilSafety(t *testing.T) {
	// Static members carry a nil lease: renewing it is a no-op, it never
	// expires and reports zero remaining/TTL.
	var l *Lease
	l.Renew()
	if l.Expired() {
		t.Fatal("nil lease expired")
	}
	if got := l.Remaining(); got != 0 {
		t.Fatalf("nil lease remaining = %v", got)
	}
	if got := l.TTL(); got != 0 {
		t.Fatalf("nil lease TTL = %v", got)
	}
}

func TestLeaseDefaultClock(t *testing.T) {
	l := NewLease(time.Hour, nil)
	if l.Expired() {
		t.Fatal("hour lease on the real clock expired instantly")
	}
	if rem := l.Remaining(); rem <= 59*time.Minute || rem > time.Hour {
		t.Fatalf("remaining = %v, want ~1h", rem)
	}
}

func TestJitterBounds(t *testing.T) {
	base := time.Second
	// A deterministic ramp over [0,1) must land every draw inside
	// [base*(1-frac), base*(1+frac)) and actually spread across it.
	var draws []time.Duration
	for i := 0; i < 100; i++ {
		u := float64(i) / 100
		d := Jitter(base, 0.2, func() float64 { return u })
		if d < 800*time.Millisecond || d >= 1200*time.Millisecond {
			t.Fatalf("Jitter(1s, 0.2) with u=%.2f = %v, outside [800ms, 1200ms)", u, d)
		}
		draws = append(draws, d)
	}
	if draws[0] != 800*time.Millisecond {
		t.Fatalf("u=0 draw = %v, want the lower bound 800ms", draws[0])
	}
	if draws[99] <= draws[0] {
		t.Fatal("jitter did not spread across the range")
	}
}

func TestJitterDegenerate(t *testing.T) {
	// Nil rand, zero fraction, and non-positive durations all collapse to
	// the input — jitter is strictly opt-in.
	if got := Jitter(time.Second, 0.2, nil); got != time.Second {
		t.Fatalf("nil rand: %v", got)
	}
	if got := Jitter(time.Second, 0, func() float64 { return 0.99 }); got != time.Second {
		t.Fatalf("zero frac: %v", got)
	}
	if got := Jitter(0, 0.5, func() float64 { return 0.99 }); got != 0 {
		t.Fatalf("zero duration: %v", got)
	}
}
