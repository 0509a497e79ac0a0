package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/resilience"
	"iotaxo/internal/resilience/chaos"
)

// TestOverloadShedsAndBoundsTail is the resilience acceptance check: drive
// the server far past its admission cap and require that (a) load is
// actually shed, (b) every rejection is a clean 429 (no 5xx, no transport
// breakage), and (c) the gate's own books agree with what the clients saw —
// every 200 was admitted, every 429 was shed at an inflight cap, and no
// slot is still held afterwards. Shedding exists to protect the latency of
// admitted work, and what bounds that latency is the number of requests let
// in at once; the admitted p99s themselves depend on the machine, so they
// are logged, not asserted.
func TestOverloadShedsAndBoundsTail(t *testing.T) {
	reg := fixtureRegistry(t)
	// Injected evaluation latency makes waiting real with one evaluation
	// slot; the cache is off so repeated rows cannot bypass evaluation.
	inj := chaos.NewInjector(chaos.Config{Latency: 2 * time.Millisecond, LatencyProb: 1}, 1)
	svc := NewService(reg, Options{Workers: 1, CacheSize: 0, Chaos: inj})
	t.Cleanup(svc.Close)
	gate := resilience.NewGate(resilience.GateConfig{MaxInflight: 4})
	ts := httptest.NewServer(NewHandler(svc, HandlerConfig{Gate: gate}))
	t.Cleanup(ts.Close)
	frame, _, _ := fixture(t)

	// run issues total requests from conc workers, returning the status
	// counts and the sorted latencies of the 200s.
	run := func(conc, total int) (map[int]int, []time.Duration) {
		t.Helper()
		var mu sync.Mutex
		statuses := make(map[int]int)
		var lats []time.Duration
		var wg sync.WaitGroup
		per := total / conc
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				client := &http.Client{Timeout: 10 * time.Second}
				for i := 0; i < per; i++ {
					raw, err := json.Marshal(PredictRequest{System: "theta", Rows: [][]float64{frame.Row((w*per + i) % frame.Len())}})
					if err != nil {
						t.Error(err)
						return
					}
					start := time.Now()
					resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					took := time.Since(start)
					mu.Lock()
					statuses[resp.StatusCode]++
					if resp.StatusCode == http.StatusOK {
						lats = append(lats, took)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return statuses, lats
	}
	p99 := func(lats []time.Duration) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(0.99*float64(len(lats)-1))]
	}

	// Baseline: concurrency at the soft cap — nothing sheds.
	baseStatuses, baseLats := run(4, 48)
	if baseStatuses[http.StatusOK] != 48 {
		t.Fatalf("unloaded baseline not clean: %v", baseStatuses)
	}
	basep99 := p99(baseLats)

	// Overload: 8x the admission cap.
	statuses, lats := run(32, 256)
	shed := statuses[http.StatusTooManyRequests]
	served := statuses[http.StatusOK]
	if shed == 0 {
		t.Fatalf("no sheds at 8x the admission cap: %v", statuses)
	}
	if served == 0 {
		t.Fatalf("shedding replaced service entirely: %v", statuses)
	}
	for code, n := range statuses {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("%d requests failed with %d; overload must shed cleanly", n, code)
		}
	}
	st := gate.Status()
	if want := uint64(48 + served); st.Admitted != want {
		t.Errorf("gate admitted %d requests, clients saw %d answered", st.Admitted, want)
	}
	// No P99Threshold is set, so the only reasons to shed are the two caps.
	if got := st.Shed[string(resilience.ShedQueue)] + st.Shed[string(resilience.ShedHard)]; got != uint64(shed) {
		t.Errorf("gate shed %d requests at its caps (%v), clients saw %d rejected", got, st.Shed, shed)
	}
	if n := st.Shed[string(resilience.ShedLatency)]; n != 0 {
		t.Errorf("%d latency sheds with the latency trigger off", n)
	}
	if st.Inflight != 0 {
		t.Errorf("%d admission slots still held after every response was read", st.Inflight)
	}
	t.Logf("baseline p99 %v; overload: %d served (p99 %v), %d shed", basep99, served, p99(lats), shed)
}
