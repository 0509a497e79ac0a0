package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type kind int

const (
	kindEmbed kind = iota // in-process Service.Predict
	kindHTTP              // POST /v1/predict on one ioserve handler
	kindFleet             // POST /v1/predict on the router over three replicas
)

// workload is one traffic mix. hitLo..hitHi is the cache hit share its
// stream must produce on the server; a run outside it is not the workload.
type workload struct {
	name         string
	kind         kind
	shape        shape
	hitLo, hitHi float64
}

// Each workload loads layers the others bypass; BENCHMARK.json and the
// README say which and why.
var workloads = []workload{
	{name: "embed-unique", kind: kindEmbed, shape: shape{batch: 16}},
	{name: "http-dup", kind: kindHTTP, shape: shape{batch: 16, dup: 0.8}, hitLo: 0.75, hitHi: 0.85},
	{name: "http-single", kind: kindHTTP, shape: shape{batch: 1, single: true}},
	{name: "fleet-split", kind: kindFleet, shape: shape{batch: 16}},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	// numCallers closed-loop callers, one per core of the 2-core box: the
	// users are a scheduler plugin or an analysis script that waits for
	// each reply before sending the next.
	numCallers  = 2
	verifyEvery = 16
)

// topDoer is the layer boundary the workload's callers stand at.
func topDoer(w *workload, s *stack, p *pool) doer {
	if w.kind == kindEmbed {
		return &predictDoer{svc: s.nodes[0].svc, p: p}
	}
	return newHTTPDoer(p, w.shape.single, s.url())
}

// closeDoer releases what a doer holds open.
func closeDoer(d doer) {
	if h, ok := d.(*httpDoer); ok {
		h.close()
	}
}

// caller is one closed-loop user.
type caller struct {
	s    *stream
	d    doer
	v    *verifier
	refs []rowRef

	// Filled over the measured windows only.
	lat      [][]int64 // request latencies per window, ns
	rows     []int     // rows served per window
	requests int
	verified int
	clientNs int64 // time outside the layer call: assembly, decode, verify
	err      error
}

func newCaller(s *stream, d doer, v *verifier, windows int) *caller {
	c := &caller{s: s, d: d, v: v, lat: make([][]int64, windows), rows: make([]int, windows)}
	for i := range c.lat {
		c.lat[i] = make([]int64, 0, 1<<14)
	}
	return c
}

// run sends requests back to back until the last window closes or a
// request fails. A request belongs to the window it completes in; those
// completing before measureStart are warm-up.
func (c *caller) run(measureStart time.Time, window time.Duration) {
	for n := 0; ; n++ {
		iterStart := time.Now()
		c.refs = c.s.nextRefs(c.refs[:0])
		decode := n%verifyEvery == 0
		rep, err := c.d.do(c.refs, decode)
		if err == nil && decode {
			err = c.v.check(c.refs, rep)
		}
		if err != nil {
			c.requests++
			c.err = fmt.Errorf("request %d: %w", n, err)
			return
		}
		if rep.end.Before(measureStart) {
			continue
		}
		w := int(rep.end.Sub(measureStart) / window)
		if w >= len(c.lat) {
			return
		}
		span := rep.end.Sub(rep.start).Nanoseconds()
		c.lat[w] = append(c.lat[w], span)
		c.rows[w] += len(c.refs)
		c.requests++
		if decode {
			c.verified++
		}
		c.clientNs += time.Since(iterStart).Nanoseconds() - span
	}
}

// windowResult is one measured window, all callers together.
type windowResult struct {
	rowsPerS, p50ms, p99ms float64
	samples                int
}

// procCounters are the process-wide counters read at both ends of the
// measured phase.
type procCounters struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readProcCounters() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (c procCounters) minus(o procCounters) procCounters {
	return procCounters{
		cpu:        c.cpu - o.cpu,
		mallocs:    c.mallocs - o.mallocs,
		allocBytes: c.allocBytes - o.allocBytes,
		gcCycles:   c.gcCycles - o.gcCycles,
		gcPause:    c.gcPause - o.gcPause,
	}
}

// residentMB is the process's resident set right now, from /proc/self/statm.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// phase is the measured phase's outcome.
type phase struct {
	windows   []windowResult
	requests  int
	rows      int
	verified  int
	clientNs  int64
	hitRatio  float64      // server-side cache hits over rows served, during the phase
	peakRSSMB float64      // the highest resident set sampled during the phase
	slowdown  float64      // the machine-speed probe's median over its fastest
	proc      procCounters // deltas over the phase
	err       error        // the first failed or mis-verified request
}

// runPhase warms up, then measures len(callers[0].lat) windows.
func runPhase(callers []*caller, st *stack, warm, window time.Duration) *phase {
	windows := len(callers[0].lat)
	// The resident set is the serving stack's alone: training and the
	// repeated set-ups left garbage whose size at any moment is the
	// collector's timing, so it goes back to the OS before the clock starts.
	debug.FreeOSMemory()
	measureStart := time.Now().Add(warm)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.run(measureStart, window)
		}(c)
	}
	time.Sleep(time.Until(measureStart))
	probe := startProbe()
	before := readProcCounters()
	hits0, served0 := st.cacheCounts()
	time.Sleep(time.Until(measureStart.Add(time.Duration(windows) * window)))
	after := readProcCounters()
	hits1, served1 := st.cacheCounts()
	slowdown := probe.stop()
	wg.Wait()

	ph := &phase{
		slowdown:  slowdown,
		peakRSSMB: probe.peakRSSMB,
		hitRatio:  div(float64(hits1-hits0), float64(served1-served0)),
		proc:      after.minus(before),
	}
	for _, c := range callers {
		ph.requests += c.requests
		ph.verified += c.verified
		ph.clientNs += c.clientNs
		if c.err != nil && ph.err == nil {
			ph.err = c.err
		}
	}
	if ph.err != nil {
		return ph
	}
	var lat []int64
	for w := 0; w < windows; w++ {
		lat = lat[:0]
		rows := 0
		for _, c := range callers {
			lat = append(lat, c.lat[w]...)
			rows += c.rows[w]
		}
		if len(lat) == 0 {
			ph.err = fmt.Errorf("window %d completed no request", w)
			return ph
		}
		slices.Sort(lat)
		ph.rows += rows
		ph.windows = append(ph.windows, windowResult{
			rowsPerS: float64(rows) / window.Seconds(),
			p50ms:    float64(percentile(lat, 0.50)) / 1e6,
			p99ms:    float64(percentile(lat, 0.99)) / 1e6,
			samples:  len(lat),
		})
	}
	return ph
}

// speedProbe times a fixed arithmetic kernel every few milliseconds while
// the phase runs. On a shared box the same kernel takes up to twice as long
// when a neighbour is busy, for seconds or minutes at a time; the kernel's
// median time over its fastest says how much of the phase ran like that.
// It is a gauge for the reader, not a correction: no metric is scaled by it.
type speedProbe struct {
	quit      chan struct{}
	done      chan struct{}
	ns        []float64
	peakRSSMB float64
}

const (
	probeEvery = 5 * time.Millisecond
	probeWords = 1 << 13 // ~50 us of dependent multiply-adds at full speed
	rssEvery   = 10      // the resident set is read every rssEvery-th tick
)

var probeSink float64 // keeps the kernel's result live

func startProbe() *speedProbe {
	p := &speedProbe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		buf := make([]float64, probeWords)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			if n%rssEvery == 0 {
				p.peakRSSMB = max(p.peakRSSMB, residentMB())
			}
			t0 := time.Now()
			s := 0.0
			for r := 0; r < 4; r++ {
				for i := range buf {
					s += buf[i] * 1.0000001
					buf[i] = s * 1e-9
				}
			}
			p.ns = append(p.ns, float64(time.Since(t0).Nanoseconds()))
			probeSink += s
		}
	}()
	return p
}

// stop ends the probe and returns median over fastest kernel time.
func (p *speedProbe) stop() float64 {
	close(p.quit)
	<-p.done
	if len(p.ns) == 0 {
		return 1
	}
	slices.Sort(p.ns)
	return p.ns[len(p.ns)/2] / p.ns[0]
}
