package obs

import "sync"

// Ring is the one fixed-capacity buffer of retained entries: the replica
// tracer's Traces, the router tracer's FleetTraces and the membership log's
// events each live in one. It is lock-light rather than lock-free: every
// operation holds a leaf mutex for bounded copies, and no evaluation or I/O
// ever runs under it. Entries are stored by value, so a pushed *T can be
// recycled at once and readers can never observe an entry mid-recycle; a T
// holding slices must deep-copy them before Push.
type Ring[T any] struct {
	mu  sync.Mutex
	buf []T
	// n counts lifetime pushes; n % len(buf) is the next slot.
	n uint64
}

// NewRing builds a ring retaining the last capacity entries (default 256).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = 256
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push copies *v into the ring, overwriting the oldest entry when full.
func (r *Ring[T]) Push(v *T) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = *v
	r.n++
	r.mu.Unlock()
}

// Len reports the retained entry count.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *Ring[T]) lenLocked() int { return int(min(r.n, uint64(len(r.buf)))) }

// newest returns the i-th newest entry (0 is the last pushed); r.mu held.
func (r *Ring[T]) newest(i int) *T { return &r.buf[(r.n-1-uint64(i))%uint64(len(r.buf))] }

// Recent returns up to limit retained entries, newest first (limit <= 0
// returns everything).
func (r *Ring[T]) Recent(limit int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]T, limit)
	for i := range out {
		out[i] = *r.newest(i)
	}
	return out
}

// Find returns the newest retained entry match accepts. match runs under
// the ring's lock, so it must not call back into the ring.
func (r *Ring[T]) Find(match func(*T) bool) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.lenLocked(); i++ {
		if e := r.newest(i); match(e) {
			return *e, true
		}
	}
	var zero T
	return zero, false
}
