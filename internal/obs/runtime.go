package obs

import "runtime"

// CollectRuntime appends Go runtime health series — goroutine count, heap
// occupancy, GC cycles and cumulative pause. Register it with
// serve.Metrics.RegisterCollector; the cost (a ReadMemStats) is paid at
// scrape time, never on the predict path.
func CollectRuntime(dst []PromFamily) []PromFamily {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return append(dst,
		Scalar("ioserve_go_goroutines", "Live goroutines.", "gauge", float64(runtime.NumGoroutine())),
		Scalar("ioserve_go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge", float64(ms.HeapAlloc)),
		Scalar("ioserve_go_heap_objects", "Live heap objects.", "gauge", float64(ms.HeapObjects)),
		Scalar("ioserve_go_sys_bytes", "Total bytes obtained from the OS.", "gauge", float64(ms.Sys)),
		Scalar("ioserve_go_next_gc_bytes", "Heap size that triggers the next GC cycle.", "gauge", float64(ms.NextGC)),
		Scalar("ioserve_go_gc_cycles_total", "Completed GC cycles.", "counter", float64(ms.NumGC)),
		Scalar("ioserve_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", "counter", float64(ms.PauseTotalNs)/1e9),
	)
}
