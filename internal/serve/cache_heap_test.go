package serve

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The forced-heap run. Row slabs normally live in anonymous mappings, which
// the race detector does not instrument, and the make([]byte, n) that stands
// in when a mapping cannot be had is otherwise reached only off unix. So the
// cache's tests run a second time in a child process of the same test binary
// in which every mapping fails: the container/list oracle, the fuzz corpus
// and the torn-read test then work on heap slabs, where -race sees every
// access, and the child fails if anything was ever handed to unmapRows.

// heapSlabsEnv marks the child. The hooks are swapped in TestMain, before any
// test or cleanup can read them.
const heapSlabsEnv = "IOTAXO_TEST_HEAP_SLABS"

func TestMain(m *testing.M) {
	if os.Getenv(heapSlabsEnv) == "" {
		os.Exit(m.Run())
	}
	var unmaps atomic.Int64
	mapRows = func(int) ([]byte, error) { return nil, errors.New("no mappings under " + heapSlabsEnv) }
	unmapRows = func([]byte) error { unmaps.Add(1); return nil }
	code := m.Run()
	// The caches the tests dropped are released by their cleanups: let those
	// run before counting.
	for round := 0; round < 3; round++ {
		if !awaitCleanup() {
			fmt.Fprintln(os.Stderr, "heap slabs: no cleanup ran in 10 s")
			code = 1
		}
	}
	if n, held := unmaps.Load(), cacheRowBytes.Load(); n != 0 || held != 0 {
		fmt.Fprintf(os.Stderr, "heap slabs: unmapRows called %d times, %d bytes counted as mapped; want 0 and 0\n", n, held)
		code = 1
	}
	os.Exit(code)
}

// awaitCleanup collects until a cleanup registered now has run, so that the
// cleanups of what was garbage before the call have been queued too.
func awaitCleanup() bool {
	ran := make(chan struct{})
	runtime.AddCleanup(new([64]byte), func(ch chan struct{}) { close(ch) }, ran)
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-ran:
			return true
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

func TestCacheOnHeapSlabs(t *testing.T) {
	if os.Getenv(heapSlabsEnv) != "" {
		t.Skip("this process is the forced-heap run")
	}
	cmd := exec.Command(os.Args[0], "-test.v", "-test.run", "^(TestCache|TestNilCache|FuzzCacheOps$|TestPredictAllocsWithCache$)")
	cmd.Env = append(os.Environ(), heapSlabsEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("the cache tests on heap slabs: %v\n%s", err, out)
	}
	for _, want := range []string{
		"--- PASS: TestCacheMatchesReference/wider_row_after_the_shards_fill",
		"--- PASS: TestCacheMatchesReference/several_slabs,_wider_row_late",
		"--- PASS: TestCacheMatchesReference/zero-heavy_wide_rows (",
		"--- PASS: TestCacheMatchesReference/zero-heavy_wide_rows,_colliding_keys",
		"--- PASS: FuzzCacheOps/widen-after-fill",
		"--- PASS: TestCacheConcurrentHitsAreNeverTorn",
		"--- PASS: TestCacheDoesNotPinRetiredBundle",
		"--- PASS: TestCacheCarriesEveryErrorSource",
		"--- PASS: TestCacheSurvivesFlippedChunks",
		"--- SKIP: TestCacheRowsAreOffHeap",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("forced-heap run has no %q in:\n%s", want, out)
		}
	}
}
