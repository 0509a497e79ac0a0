package resilience

import (
	"sync"
	"time"
)

// Lease is a renewable time-to-live: the fleet router grants one per
// dynamically registered replica, the replica's heartbeats renew it, and
// expiry is the router's signal that the member is gone (process death,
// network partition) and must be ejected through the minimal-remap path.
// The clock is injectable so lease-expiry paths are testable without
// sleeping.
type Lease struct {
	ttl time.Duration
	now func() time.Time

	mu     sync.Mutex
	expiry time.Time
}

// NewLease grants a lease of the given TTL starting now. A nil now uses
// time.Now.
func NewLease(ttl time.Duration, now func() time.Time) *Lease {
	if now == nil {
		now = time.Now
	}
	l := &Lease{ttl: ttl, now: now}
	l.expiry = now().Add(ttl)
	return l
}

// Renew extends the lease by its TTL from now (heartbeat received). A nil
// lease has nothing to extend.
func (l *Lease) Renew() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.expiry = l.now().Add(l.ttl)
	l.mu.Unlock()
}

// Expired reports whether the lease has lapsed. A nil lease never expires
// (static, operator-configured members carry no lease).
func (l *Lease) Expired() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.now().Before(l.expiry)
}

// Remaining returns the time until expiry (negative once lapsed). A nil
// lease reports 0.
func (l *Lease) Remaining() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expiry.Sub(l.now())
}

// TTL returns the grant period.
func (l *Lease) TTL() time.Duration {
	if l == nil {
		return 0
	}
	return l.ttl
}

// Jitter spreads a periodic interval uniformly over [d*(1-frac), d*(1+frac)]
// so a fleet of heartbeaters started together does not stay phase-locked
// and stampede the router on every beat. rand must return values in [0,1);
// nil falls back to the midpoint (no jitter), which keeps callers safe in
// tests that did not wire a source.
func Jitter(d time.Duration, frac float64, rand func() float64) time.Duration {
	if d <= 0 || frac <= 0 || rand == nil {
		return d
	}
	if frac > 1 {
		frac = 1
	}
	// Uniform in [1-frac, 1+frac).
	scale := 1 - frac + 2*frac*rand()
	return time.Duration(float64(d) * scale)
}
