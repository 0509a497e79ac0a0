package obs

import (
	"sync"
	"testing"
)

// pair is a ring entry whose two fields must always agree; a reader that
// sees them disagree has caught a torn copy.
type pair struct{ A, B uint64 }

// TestRingTornEntries races writers pushing pairs against readers running
// Recent and Find, and fails on any entry whose fields disagree or any
// Recent that is not newest first. Run it under -race with -count.
func TestRingTornEntries(t *testing.T) {
	const writers, readers, pushes = 4, 4, 2000
	r := NewRing[pair](64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(1); i <= pushes; i++ {
				v := w<<32 | i
				r.Push(&pair{A: v, B: ^v})
			}
		}(uint64(w))
	}
	done := make(chan struct{})
	errs := make(chan string, readers)
	var rwg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			last := make(map[uint64]uint64) // writer -> newest sequence seen in this Recent
			for {
				select {
				case <-done:
					return
				default:
				}
				clear(last)
				for _, e := range r.Recent(0) {
					if e.B != ^e.A {
						errs <- "Recent returned a torn entry"
						return
					}
					// Newest first: one writer's sequence numbers must fall.
					w, seq := e.A>>32, e.A&0xffffffff
					if prev, ok := last[w]; ok && seq >= prev {
						errs <- "Recent is not newest first"
						return
					}
					last[w] = seq
				}
				if e, ok := r.Find(func(e *pair) bool { return e.A&1 == 0 }); ok && e.B != ^e.A {
					errs <- "Find returned a torn entry"
					return
				}
				if n := r.Len(); n < 0 || n > 64 {
					errs <- "Len out of range"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d after %d pushes, want the capacity 64", r.Len(), writers*pushes)
	}
}
