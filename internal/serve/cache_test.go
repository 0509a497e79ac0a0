package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iotaxo/internal/dataset"
)

// Distinct bundle identities for cache tests — entries are scoped to the
// producing *ModelVersion, so tests need stable ones.
var (
	cacheBundleA = &ModelVersion{System: "theta", Version: 1}
	cacheBundleB = &ModelVersion{System: "theta", Version: 1}
	cacheBundleC = &ModelVersion{System: "cori", Version: 1}
)

func TestHashKeyDistinguishes(t *testing.T) {
	row := []float64{1, 2, 3}
	base := HashKey("theta", 1, row)
	if HashKey("theta", 1, []float64{1, 2, 3}) != base {
		t.Error("identical inputs hash differently")
	}
	if HashKey("cori", 1, row) == base {
		t.Error("system not mixed into key")
	}
	if HashKey("theta", 2, row) == base {
		t.Error("version not mixed into key")
	}
	if HashKey("theta", 1, []float64{1, 2, 4}) == base {
		t.Error("row not mixed into key")
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(64)
	row := []float64{1.5, -2.25}
	key := HashKey("theta", 1, row)
	if _, ok := c.Get(key, row, cacheBundleA); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, row, cacheBundleA, Result{PredLog: 7})
	res, ok := c.Get(key, row, cacheBundleA)
	if !ok || res.PredLog != 7 {
		t.Fatalf("want hit with 7, got %v %v", res, ok)
	}
	// Same key, different row (synthetic collision) must miss: also a row
	// with the same non-zero values at other places, or with -0 for +0.
	for _, other := range [][]float64{{9, 9}, {1.5, -2.25, 0}, {0, 1.5, -2.25}} {
		if _, ok := c.Get(key, other, cacheBundleA); ok {
			t.Errorf("collision row %v served the entry for %v", other, row)
		}
	}
	zero := []float64{0, 1.5}
	c.Put(key, zero, cacheBundleA, Result{PredLog: 8})
	if _, ok := c.Get(key, []float64{math.Copysign(0, -1), 1.5}, cacheBundleA); ok {
		t.Error("a row with -0 served the entry for the same row with +0")
	}
}

func TestCacheBundleScoped(t *testing.T) {
	// An entry produced by one bundle must not answer for another bundle
	// with the same (system, version) — that is exactly the situation
	// after a live reload replaces a version's artifacts in place.
	c := NewCache(64)
	row := []float64{3, 4}
	key := HashKey("theta", 1, row)
	c.Put(key, row, cacheBundleA, Result{PredLog: 1})
	if _, ok := c.Get(key, row, cacheBundleB); ok {
		t.Error("entry from a replaced bundle served for its successor")
	}
	if _, ok := c.Get(key, row, cacheBundleA); !ok {
		t.Error("entry missing for its own bundle")
	}
	// Put under the new bundle refreshes the entry in place.
	c.Put(key, row, cacheBundleB, Result{PredLog: 2})
	if res, ok := c.Get(key, row, cacheBundleB); !ok || res.PredLog != 2 {
		t.Errorf("refreshed entry wrong: %v %v", res, ok)
	}
}

func TestCacheInvalidateSystem(t *testing.T) {
	c := NewCache(64)
	rowT, rowC := []float64{1}, []float64{2}
	keyT := HashKey("theta", 1, rowT)
	keyC := HashKey("cori", 1, rowC)
	c.Put(keyT, rowT, cacheBundleA, Result{PredLog: 1})
	c.Put(keyC, rowC, cacheBundleC, Result{PredLog: 2})
	if dropped := c.InvalidateSystem("theta"); dropped != 1 {
		t.Errorf("dropped %d entries, want 1", dropped)
	}
	if _, ok := c.Get(keyT, rowT, cacheBundleA); ok {
		t.Error("invalidated entry still resident")
	}
	if _, ok := c.Get(keyC, rowC, cacheBundleC); !ok {
		t.Error("unrelated system's entry was dropped")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 16 -> 1 entry per shard; a second insert into the same
	// shard evicts the first.
	c := NewCache(16)
	var rows [][]float64
	var keys []uint64
	// Find two rows landing in the same shard.
	for i := 0; len(rows) < 2; i++ {
		row := []float64{float64(i)}
		key := HashKey("theta", 1, row)
		if len(rows) == 0 || key&(cacheShards-1) == keys[0]&(cacheShards-1) {
			if len(rows) == 1 && key == keys[0] {
				continue
			}
			rows = append(rows, row)
			keys = append(keys, key)
		}
	}
	c.Put(keys[0], rows[0], cacheBundleA, Result{PredLog: 1})
	c.Put(keys[1], rows[1], cacheBundleA, Result{PredLog: 2})
	if _, ok := c.Get(keys[0], rows[0], cacheBundleA); ok {
		t.Error("LRU entry not evicted from full shard")
	}
	if _, ok := c.Get(keys[1], rows[1], cacheBundleA); !ok {
		t.Error("fresh entry missing")
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	// Room for 16 a shard: 14 protected, and probation starts at 1. Fourteen
	// entries hit and fill protected; touching the oldest makes the second
	// oldest protected's least recently used. The next entry to hit moves
	// that one back to probation, where the next new entry pushes it out, and
	// is pushed out by the one after.
	c := NewCache(16 * cacheShards)
	var rows [][]float64
	var keys []uint64
	for i := 0; len(rows) < 17; i++ {
		row := []float64{float64(i), 42}
		if key := HashKey("theta", 1, row); key&(cacheShards-1) == 0 {
			rows = append(rows, row)
			keys = append(keys, key)
		}
	}
	hit := func(n int) bool {
		_, ok := c.Get(keys[n], rows[n], cacheBundleA)
		return ok
	}
	put := func(n int) { c.Put(keys[n], rows[n], cacheBundleA, Result{PredLog: float64(n)}) }
	for n := range 15 {
		if n == 14 && !hit(0) { // 1 is now protected's least recently used
			t.Fatal("protected entry 0 missing")
		}
		put(n)
		if !hit(n) { // for 14, this moves 1 to probation
			t.Fatalf("entry %d missing right after its Put", n)
		}
	}
	put(15)
	put(16)
	if hit(1) {
		t.Error("the least recently used protected entry survived its move to probation and a Put")
	}
	if hit(15) {
		t.Error("a new entry survived the next Put into a one-slot probation list")
	}
	for _, n := range []int{0, 14, 16} {
		if !hit(n) {
			t.Errorf("entry %d was evicted in place of the probation tail", n)
		}
	}
	if n := c.Len(); n != 15 {
		t.Errorf("the cache holds %d entries, want 14 protected and 1 on probation", n)
	}
}

// probationLen is how many entries a cache of capacity holds after a flood
// of rows that never hit: probation's starting bound in every shard, a 64th
// of its slots, at least one.
func probationLen(capacity int) int {
	return cacheShards * max(1, (capacity+cacheShards-1)/cacheShards/64)
}

// Probation widens only for a row that comes back after it was evicted, by a
// 32nd of the shard's slots each time, and no further than an eighth. A shard
// of 256 slots starts at 4 and widens by 8 up to 32.
func TestCacheProbationWidensOnReturningRows(t *testing.T) {
	c := NewCache(256 * cacheShards)
	s := &c.shards[0]
	rows := map[uint64][]float64{} // shard 0's rows by key
	fresh := func() uint64 {
		for n := len(rows); ; n++ {
			row := []float64{float64(n), 7}
			if key := HashKey("theta", 1, row); key&(cacheShards-1) == 0 && rows[key] == nil {
				rows[key] = row
				return key
			}
		}
	}
	put := func(key uint64) { c.Put(key, rows[key], cacheBundleA, Result{PredLog: rows[key][0]}) }
	if s.window != 4 {
		t.Fatalf("probation starts at %d, want 4", s.window)
	}
	for _, want := range []int32{12, 20, 28, 32, 32} {
		for s.probation.n < s.window {
			put(fresh())
		}
		before, evicted := s.window, s.slots[s.probation.tail].key
		put(fresh())
		if s.find(evicted) >= 0 {
			t.Fatal("a Put into a full probation list kept its least recently used entry")
		}
		if s.window != before {
			t.Fatalf("a row never seen widened probation from %d to %d", before, s.window)
		}
		put(evicted)
		if s.window != want {
			t.Errorf("a row put again after probation evicted it widened probation from %d to %d, want %d", before, s.window, want)
		}
		if s.probation.n != min(before+1, want) {
			t.Errorf("probation holds %d entries after the row came back, want %d", s.probation.n, min(before+1, want))
		}
	}
}

// A hot set that has hit once is protected: a flood of twice the capacity in
// rows that never come back evicts none of it, and leaves exactly the hot set
// and a full probation list resident. A plain LRU keeps none of the hot set.
func TestCacheHotSetSurvivesFlood(t *testing.T) {
	const capacity, hot = 1 << 16, 4096
	c := NewCache(capacity)
	row := make([]float64, 2)
	key := func(n int) uint64 {
		row[0], row[1] = float64(n), 1
		return HashKey("theta", 1, row)
	}
	for n := range hot {
		k := key(n)
		c.Put(k, row, cacheBundleA, Result{PredLog: float64(n)})
		if _, ok := c.Get(k, row, cacheBundleA); !ok {
			t.Fatalf("hot row %d missing right after its Put", n)
		}
	}
	for n := hot; n < hot+2*capacity; n++ {
		c.Put(key(n), row, cacheBundleA, Result{PredLog: float64(n)})
	}
	if got, want := c.Len(), hot+probationLen(capacity); got != want {
		t.Errorf("%d entries after the flood, want the %d hot rows and a full probation list, %d", got, hot, want)
	}
	missed := 0
	for n := range hot {
		if res, ok := c.Get(key(n), row, cacheBundleA); !ok || res.PredLog != float64(n) {
			missed++
		}
	}
	if missed != 0 {
		t.Errorf("%d of %d hot rows missed on replay after a flood of %d one-off rows", missed, hot, 2*capacity)
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	row := []float64{1}
	if _, ok := c.Get(1, row, cacheBundleA); ok {
		t.Error("nil cache hit")
	}
	c.Put(1, row, cacheBundleA, Result{})
	if c.Len() != 0 {
		t.Error("nil cache has length")
	}
	if c.InvalidateSystem("theta") != 0 {
		t.Error("nil cache invalidated entries")
	}
}

// The cache's memory claims rest on its slots and the bucket words that
// index them holding nothing the collector has to follow: both live in a
// mapping the collector never scans, reached through metaArray's unsafe.Slice,
// so a pointer stored in either would be one the collector cannot see.
func TestCacheSlotIsPointerFree(t *testing.T) {
	pointerFree(t, "cacheSlot", reflect.TypeOf(cacheSlot{}))
	pointerFree(t, "ghost", reflect.TypeOf(cacheShard{}.ghosts).Elem())
	pointerFree(t, "bucket", reflect.TypeOf(cacheShard{}.buckets).Elem())
	pointerFree(t, "slab element", reflect.TypeOf(rowSlab{}.b).Elem())
	if size := reflect.TypeOf(cacheSlot{}).Size(); size != 72 {
		t.Errorf("cacheSlot is %d bytes, want 72: a field is no longer packed into padding", size)
	}
}

// pointerFree fails t for every field of ty the collector would scan.
func pointerFree(t *testing.T, path string, ty reflect.Type) {
	switch ty.Kind() {
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			pointerFree(t, path+"."+ty.Field(i).Name, ty.Field(i).Type)
		}
	case reflect.Array:
		pointerFree(t, path+"[]", ty.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		t.Errorf("%s is a %s: the collector would scan every element for it", path, ty.Kind())
	}
}

// The served record holds what a prediction is: log10 throughput, the
// guard's EU, AU, flag and presence, and the cache hit. Bytes/s and the
// label are derived on the wire, so a request's result block is 40 B a row
// and holds nothing the collector scans.
func TestPredictionRecordIsPointerFree(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{{PredictionResult{}, 40}, {Guard{}, 24}, {Result{}, 32}} {
		ty := reflect.TypeOf(c.v)
		pointerFree(t, ty.Name(), ty)
		if ty.Size() != c.size {
			t.Errorf("%s is %d bytes, want %d", ty.Name(), ty.Size(), c.size)
		}
	}
}

// A 16-row Predict allocates its result block and nothing else: 16 × 40 B.
// The counts are the process's, so the steady state is the quietest of ten
// rounds: a collection that empties the evaluation's scratch pool, or a
// goroutine an earlier test left behind, can only add to a round.
func TestPredictResultBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{})
	t.Cleanup(svc.Close)
	rows := frame.Rows()[:16]
	predict := func() {
		if _, _, err := svc.Predict(context.Background(), "theta", 0, rows); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 10 {
		predict()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			predict()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs != runs || bytes > runs*16*40 {
		t.Errorf("a 16-row Predict allocates %.1f times, %d B a call: want once, at most %d B", float64(allocs)/runs, bytes/runs, 16*40)
	}
}

// needMappedRows skips a test of the mappings where there are none: off unix,
// and in the forced-heap run of TestCacheOnHeapSlabs.
func needMappedRows(t *testing.T) {
	t.Helper()
	b, err := mapRows(1)
	if err != nil {
		t.Skipf("row slabs are heap slices here: %v", err)
	}
	unmapRows(b)
}

// floodedCache returns a cache of capacity entries after twice that many
// rows of width features, none of which hit or comes back: every shard's
// probation list full at its starting bound and nothing protected.
func floodedCache(t *testing.T, capacity, width int) *Cache {
	t.Helper()
	c := NewCache(capacity)
	rng := rand.New(rand.NewPCG(uint64(capacity), uint64(width)))
	row := make([]float64, width)
	for n := 0; n < 2*capacity; n++ {
		row[0], row[width-1] = rng.Float64(), float64(n)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: float64(n)})
	}
	if got, want := c.Len(), probationLen(capacity); got != want {
		t.Fatalf("cache holds %d entries after %d inserts, want a full probation list, %d", got, 2*capacity, want)
	}
	return c
}

// thetaRow writes into dst the fixture's row n mod its length, with n+1
// added to feature 0 so that no two n give one row, and returns it.
func thetaRow(frame *dataset.Frame, n int, dst []float64) []float64 {
	dst = append(dst[:0], frame.Row(n%frame.Len())...)
	dst[0] += float64(n + 1)
	return dst
}

// The point of mapping the cache, and of storing its rows zero-suppressed:
// the default cache, full of the fixture's real Theta rows that have each hit
// once, costs the Go heap next to nothing a resident row, its slots, ghosts
// and buckets take no more than 96 mapped bytes a row, and its chunk slabs no
// more than 640, where the 101 values at full width take 808. No row comes
// back, so probation stays at its starting bound beside a full protected
// list.
func TestCacheRowsAreOffHeap(t *testing.T) {
	needMappedRows(t)
	frame, _, _ := fixture(t)
	const capacity = 65536
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCache(capacity)
	var row []float64
	values, zeros := 0, 0
	for n := 0; n < 2*capacity; n++ {
		row = thetaRow(frame, n, row)
		key := HashKey("theta", 1, row)
		c.Put(key, row, cacheBundleA, Result{PredLog: float64(n)})
		if _, ok := c.Get(key, row, cacheBundleA); !ok {
			t.Fatalf("row %d missing right after its Put", n)
		}
		for _, v := range row {
			values++
			if v == 0 {
				zeros++
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := capacity - capacity/8 + probationLen(capacity)
	if c.Len() != resident {
		t.Fatalf("cache holds %d entries after %d inserts that each hit, want a full protected list and a narrow probation list, %d", c.Len(), 2*capacity, resident)
	}
	mapped, meta := 0, 0
	for i := range c.shards {
		s := &c.shards[i]
		mapped += len(*s.slabs) * cacheSlabChunks * cacheChunkBytes
		meta += len(s.slots)*int(reflect.TypeOf(cacheSlot{}).Size()) + 8*len(s.ghosts) + 4*len(s.buckets)
	}
	perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(resident)
	t.Logf("%.1f heap bytes a resident row, %.0f mapped in slots, ghosts and buckets, %.0f in chunks; %d-feature rows, %.1f %% of values zero",
		perRow, float64(meta)/float64(resident), float64(mapped)/float64(resident), len(row), 100*float64(zeros)/float64(values))
	if perRow >= 16 {
		t.Errorf("a resident row costs %.1f bytes of Go heap, want < 16", perRow)
	}
	if perMeta := float64(meta) / float64(resident); perMeta > 96 {
		t.Errorf("a resident row costs %.0f mapped bytes of slot, ghosts and buckets, want <= 96", perMeta)
	}
	if perMapped := float64(mapped) / float64(resident); perMapped > 640 {
		t.Errorf("a resident row costs %.0f mapped bytes, want <= 640 (at full width it is %d)", perMapped, 8*len(row))
	}
	runtime.KeepAlive(c)
}

// Rows that never hit do not grow the mappings: after a flood of twice the
// default capacity in the fixture's Theta rows, none of which comes back, no
// shard's probation list has widened, and ioserve_cache_row_bytes holds no
// more than the slabs a probation list at its starting bound of the widest
// stored rows takes, where a plain LRU would map the chunks of every one of
// the 65 536 rows.
func TestCacheFloodMapsOnlyProbation(t *testing.T) {
	needMappedRows(t)
	frame, _, _ := fixture(t)
	const capacity = 65536
	// What earlier tests dropped is released first, so that the gauge moves
	// only by what happens here.
	if !awaitCleanup() || !awaitCleanup() {
		t.Fatal("no cleanup ran in 10 s")
	}
	base := cacheRowBytes.Load()
	c := NewCache(capacity)
	var row []float64
	chunks := 0 // the most chunks one row takes
	for n := 0; n < 2*capacity; n++ {
		row = thetaRow(frame, n, row)
		chunks = max(chunks, (len(appendStored(nil, row))/8+chunkWords-1)/chunkWords)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: float64(n)})
	}
	if got, want := c.Len(), probationLen(capacity); got != want {
		t.Fatalf("cache holds %d entries after a flood, want a full probation list, %d", got, want)
	}
	for i := range c.shards {
		if w := c.shards[i].window; int(w) != probationLen(capacity)/cacheShards {
			t.Errorf("shard %d: one-off rows widened probation to %d", i, w)
		}
	}
	perShard := probationLen(capacity) / cacheShards * chunks
	slabs := cacheShards * ((perShard + cacheSlabChunks - 1) / cacheSlabChunks)
	held, limit := cacheRowBytes.Load()-base, int64(slabs*cacheSlabChunks*cacheChunkBytes)
	t.Logf("%d mapped row bytes after a flood of %d rows; a full probation list of %d-chunk rows is %d slabs, %d bytes",
		held, 2*capacity, chunks, slabs, limit)
	if held > limit {
		t.Errorf("a flood of one-off rows left %d bytes mapped, want at most %d", held, limit)
	}
	runtime.KeepAlive(c)
}

// Mappings are not the collector's to free. A full cache maps exactly the
// slabs its chunks need, and a cache nothing refers to any more gives them
// and its slot and bucket mapping back: no Close, and no bytes left behind.
func TestCacheReleasesMappings(t *testing.T) {
	needMappedRows(t)
	// What earlier tests dropped is released first, so that the count moves
	// only by what happens here.
	if !awaitCleanup() || !awaitCleanup() {
		t.Fatal("no cleanup ran in 10 s")
	}
	// floodedCache's rows have at most two non-zero values, so each takes one
	// chunk, and a shard's probation list holds a 64th of its slots: two
	// slabs a shard, the second part used.
	const perShard = 64 * (cacheSlabChunks + 44)
	base := cacheRowBytes.Load()
	var metas [][2]uintptr // each cache's slot and bucket mapping: first and last byte
	func() {
		five, three := floodedCache(t, cacheShards*perShard, 5), floodedCache(t, cacheShards*perShard, 3)
		if got, want := cacheRowBytes.Load()-base, int64(2*cacheShards*2*cacheSlabChunks*cacheChunkBytes); got != want {
			t.Fatalf("two flooded caches hold %d mapped bytes, want %d", got, want)
		}
		for _, c := range []*Cache{five, three} {
			last := c.shards[cacheShards-1].buckets
			metas = append(metas, [2]uintptr{
				reflect.ValueOf(c.shards[0].slots).Pointer(),
				reflect.ValueOf(last).Pointer() + uintptr(4*len(last)-1),
			})
		}
		runtime.KeepAlive(five)
		runtime.KeepAlive(three)
	}()
	for _, m := range metas {
		if in, ok := inMapping(t, m); ok && !in {
			t.Fatalf("a live cache's slots and buckets at %#x are not in a mapping", m[0])
		}
	}
	for deadline := time.Now().Add(10 * time.Second); cacheRowBytes.Load() != base; {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatalf("%d mapped bytes outlive the caches that were dropped", cacheRowBytes.Load()-base)
		}
	}
	// One cleanup released each cache's slabs and its metadata together.
	for _, m := range metas {
		if in, _ := inMapping(t, m); in {
			t.Errorf("a dropped cache's slots and buckets at %#x are still mapped", m[0])
		}
	}
}

// inMapping reports whether any byte of the range r, first and last byte, is
// in one of the process's mappings, and whether /proc/self/maps could tell.
func inMapping(t *testing.T, r [2]uintptr) (in, ok bool) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(strings.TrimSpace(string(maps)), "\n") {
		lo, hi, _ := strings.Cut(strings.Fields(line)[0], "-")
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unreadable /proc/self/maps line %q", line)
		}
		if uint64(r[0]) < end && uint64(r[1]) >= start {
			return true, true
		}
	}
	return false, true
}

// Chunk links are the one index the cache reads back from row storage. Every
// bit of one stored row's chunks is flipped in turn: a Get must then miss or
// return exactly what was stored, for that row and every other in its shard,
// and never panic. A flip in a word of the row must miss, and one outside
// what the row uses must not. Each row hits once as it is stored, so that all
// eight stay resident in a shard of eight slots.
func TestCacheSurvivesFlippedChunks(t *testing.T) {
	type entry struct {
		key uint64
		row []float64
		res Result
	}
	c := NewCache(8 * cacheShards)
	var entries []entry
	for n := 7; len(entries) < 8; n += len(diffRowWidths) { // 138-wide rows
		row := diffRow(n)
		if key := HashKey("theta", 1, row); key&(cacheShards-1) == 0 {
			res := Result{PredLog: float64(n)}
			c.Put(key, row, cacheBundleA, res)
			if _, ok := c.Get(key, row, cacheBundleA); !ok {
				t.Fatalf("row %d missing right after its Put", n)
			}
			entries = append(entries, entry{key, row, res})
		}
	}
	s, target := &c.shards[0], entries[0]
	words := len(appendStored(nil, target.row)) / 8
	var chain [][]byte
	for b := s.chunk(uint64(s.slots[s.find(target.key)].first)); b != nil; b = s.chunk(binary.LittleEndian.Uint64(b)) {
		chain = append(chain, b)
	}
	if len(chain) != (words+chunkWords-1)/chunkWords || len(chain) < 2 {
		t.Fatalf("the row's %d words are in %d chunks", words, len(chain))
	}
	misses := 0
	for k, b := range chain {
		for bit := 0; bit < 8*cacheChunkBytes; bit++ {
			b[bit/8] ^= 1 << (bit % 8)
			for _, e := range entries {
				res, ok := c.Get(e.key, e.row, cacheBundleA)
				if ok && res != e.res {
					t.Fatalf("chunk %d bit %d flipped: Get returned %+v for a row stored with %+v", k, bit, res, e.res)
				}
				if e.key != target.key {
					continue
				}
				word := bit / 64
				inRow := word > 0 && k*chunkWords+word-1 < words
				isLink := word == 0 && k < len(chain)-1
				switch {
				case inRow && ok:
					t.Fatalf("chunk %d bit %d flipped: a row word changed and Get still hit", k, bit)
				case !inRow && !isLink && !ok:
					t.Fatalf("chunk %d bit %d flipped: a bit the row does not use made Get miss", k, bit)
				case !ok:
					misses++
				}
			}
			b[bit/8] ^= 1 << (bit % 8)
		}
	}
	t.Logf("%d flips in %d chunks, %d misses", 8*cacheChunkBytes*len(chain), len(chain), misses)
	for _, e := range entries {
		if res, ok := c.Get(e.key, e.row, cacheBundleA); !ok || res != e.res {
			t.Errorf("after the flips were undone: Get = %+v %v, want %+v", res, ok, e.res)
		}
	}
}

// Bucket words and chain links are read back from mapped memory as well.
// Every bit of one full shard's index words — its buckets, then each slot's
// chain link — is flipped in turn, in a fresh cache each time. Get of every
// resident row must then miss or return exactly what was stored for it; so
// must it after a second round of Puts has evicted every first entry through
// the corrupt chains, and InvalidateSystem must still empty the cache, also
// once the emptied slots have been filled again. Every Put is followed by a
// Get, so that what hits is protected and the shard fills past its one
// probation slot.
func TestCacheSurvivesFlippedIndex(t *testing.T) {
	const perShard = 8
	type entry struct {
		key uint64
		row []float64
		res Result
	}
	var entries []entry // shard 0's: the first perShard fill it, the rest evict them
	for n := 0; len(entries) < 2*perShard; n++ {
		row := []float64{float64(n), 1}
		if key := HashKey("theta", 1, row); key&(cacheShards-1) == 0 {
			entries = append(entries, entry{key, row, Result{PredLog: float64(n)}})
		}
	}
	first, second := entries[:perShard], entries[perShard:]
	build := func() (*Cache, []*int32) {
		c := NewCache(perShard * cacheShards)
		for _, e := range first {
			c.Put(e.key, e.row, cacheBundleA, e.res)
			if _, ok := c.Get(e.key, e.row, cacheBundleA); !ok {
				t.Fatalf("row %v missing right after its Put", e.row)
			}
		}
		s := &c.shards[0]
		var words []*int32
		for i := range s.buckets {
			words = append(words, &s.buckets[i])
		}
		for i := range s.slots {
			words = append(words, &s.slots[i].chain)
		}
		return c, words
	}
	misses := 0
	check := func(c *Cache, es []entry, flip string) {
		for _, e := range es {
			res, ok := c.Get(e.key, e.row, cacheBundleA)
			if ok && res != e.res {
				t.Fatalf("%s: Get returned %+v for a row stored with %+v", flip, res, e.res)
			}
			if !ok {
				misses++
			}
		}
	}
	put := func(c *Cache, es []entry, flip string) {
		for _, e := range es {
			c.Put(e.key, e.row, cacheBundleA, e.res)
			check(c, []entry{e}, flip)
		}
	}
	c, words := build()
	chained := 0
	for _, w := range words[len(c.shards[0].buckets):] {
		if *w != 0 {
			chained++
		}
	}
	if c.Len() != perShard || chained == 0 {
		t.Fatalf("%d entries, %d of them chained behind another: the flips would not reach a chain link", c.Len(), chained)
	}
	for w := range words {
		for bit := 0; bit < 32; bit++ {
			flip := fmt.Sprintf("index word %d bit %d flipped", w, bit)
			c, words := build()
			*words[w] ^= 1 << bit
			check(c, first, flip)
			put(c, second, flip)
			check(c, second, flip)
			check(c, first, flip)
			if n := c.Len(); n > perShard {
				t.Fatalf("%s: the cache holds %d entries, more than shard 0 can", flip, n)
			}
			// Emptied slots keep their keys: a Put must never take one
			// reached through a corrupt link for a resident entry.
			for round := 0; round < 2; round++ {
				c.InvalidateSystem("theta")
				if n := c.Len(); n != 0 {
					t.Fatalf("%s: %d entries survive InvalidateSystem", flip, n)
				}
				put(c, second, flip)
				check(c, second, flip)
			}
		}
	}
	t.Logf("%d flips in %d index words (%d chain links in use), %d misses", 32*len(words), len(words), chained, misses)
}

// A bundle that was cached under and then replaced must be collectable
// while its entries are still resident: nothing invalidates the cache on
// promote, rollback or a drift retrain, so an entry that held its bundle
// would pin the trees and ensemble until it aged out of the LRU.
func TestCacheDoesNotPinRetiredBundle(t *testing.T) {
	c := NewCache(64)
	collected := make(chan struct{})
	func() {
		mv := &ModelVersion{System: "theta", Version: 1, Columns: make([]string, 1<<10)}
		runtime.SetFinalizer(mv, func(*ModelVersion) { close(collected) })
		row := []float64{1, 2}
		c.Put(HashKey("theta", 1, row), row, mv, Result{PredLog: 1, Guard: Guard{set: true}})
	}()
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a bundle with one resident cache entry was never collected")
		}
	}
}

// Every Source* constant guard.go declares must survive Put -> Get: the cache
// stores only the ood flag, so a new error class that Guard.ErrorSource cannot
// spell fails here, not in production as a relabelled diagnosis.
func TestCacheCarriesEveryErrorSource(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "guard.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sources []string
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Source") {
					v, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					sources = append(sources, v)
				}
			}
		}
		return true
	})
	if len(sources) < 2 {
		t.Fatalf("found only %v in guard.go", sources)
	}
	c := NewCache(64)
	for i, src := range sources {
		row := []float64{float64(i)}
		key := HashKey("theta", 1, row)
		want := Guard{EU: float64(i) + 0.5, AU: 0.25, OoD: src == SourceGeneralization, set: true}
		c.Put(key, row, cacheBundleA, Result{PredLog: 9, Guard: want})
		if res, ok := c.Get(key, row, cacheBundleA); !ok || res != (Result{PredLog: 9, Guard: want}) || res.Guard.ErrorSource() != src {
			t.Errorf("%s: Get = %+v %v, want the Guard as Put, labelled %s", src, res, ok, src)
		}
	}
}

func TestCacheSteadyStateAllocs(t *testing.T) {
	c := NewCache(64 * cacheShards)
	row := make([]float64, 16)
	res := Result{PredLog: 9, Guard: Guard{EU: 0.1, AU: 0.2, set: true}}
	n := 0
	put := func() {
		n++
		row[3] = float64(n)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, res)
	}
	for n < 4*64*cacheShards { // well past capacity: every probation list is evicting
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Errorf("Put into a full cache allocates %.0f times, want 0", allocs)
	}
	key := HashKey("theta", 1, row)
	if allocs := testing.AllocsPerRun(1000, func() {
		if res, ok := c.Get(key, row, cacheBundleA); !ok || res.Guard.ErrorSource() != SourceModeling {
			t.Fatal("resident entry missed")
		}
	}); allocs != 0 {
		t.Errorf("a cache hit allocates %.0f times, want 0", allocs)
	}
}

// TestNewCacheAllocatesNoStorage: building a cache costs the Go heap the
// Cache value and its slab table — slots and buckets are mapped, and rows
// are paid for by the entries that arrive — and Put and Get into a cache
// filled from nothing are allocation-free.
func TestNewCacheAllocatesNoStorage(t *testing.T) {
	needMappedRows(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCache(1 << 16)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("NewCache(1<<16) allocated %d bytes, want < 16 KB", got)
	}
	row := make([]float64, 1)
	n := 0
	put := func() {
		n++
		row[0] = float64(n)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: 9})
	}
	for n < 2<<16 { // twice the capacity: every probation list is full and evicting
		put()
	}
	if got, want := c.Len(), probationLen(1<<16); got != want {
		t.Fatalf("cache holds %d entries after %d inserts, want a full probation list, %d", got, n, want)
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Errorf("Put into a cache that grew to full allocates %.0f times, want 0", allocs)
	}
	key := HashKey("theta", 1, row)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(key, row, cacheBundleA); !ok {
			t.Fatal("resident entry missed")
		}
	}); allocs != 0 {
		t.Errorf("a hit in a cache that grew to full allocates %.0f times, want 0", allocs)
	}
}

// A Predict allocates only what it returns, its results, guards included by
// value: a hit costs nothing beyond them, nor does a row inserted into the
// full cache, nor the evaluation of the misses.
func TestPredictAllocsWithCache(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	frame, _, _ := fixture(t)
	svc := NewService(fixtureRegistry(t), Options{CacheSize: 32 * cacheShards})
	t.Cleanup(svc.Close)
	rows := make([][]float64, 16)
	n := 0
	fresh := func() { // rows no request has carried before
		for i := range rows {
			n++
			rows[i] = append(rows[i][:0], frame.Row(i)...)
			rows[i][0] += float64(n)
		}
	}
	predict := func() {
		if _, _, err := svc.Predict(context.Background(), "theta", 0, rows); err != nil {
			t.Fatal(err)
		}
	}
	for n < 3*32*cacheShards {
		fresh()
		predict()
	}
	// Rows that shared a shard's one probation slot evicted each other; they
	// stay once they come back, widening it, or hit and are protected.
	m := svc.Metrics()
	for try := 0; ; try++ {
		hits := m.CacheHits.Load()
		if predict(); m.CacheHits.Load()-hits == 16 {
			break
		}
		if try == 16 {
			t.Fatal("a 16-row request still misses after 16 repeats")
		}
	}
	hits := m.CacheHits.Load()
	if allocs := testing.AllocsPerRun(100, predict); allocs != 1 {
		t.Errorf("a fully cached 16-row Predict allocates %.0f times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { fresh(); predict() }); allocs != 1 {
		t.Errorf("a 16-miss Predict on a full cache allocates %.0f times, want 1", allocs)
	}
	if got := m.CacheHits.Load() - hits; got != 101*16 {
		t.Errorf("%d cache hits, want the %d rows of the cached runs only", got, 101*16)
	}
}

// Torn reads. Goroutines Put, Get and invalidate over a few dozen rows whose
// keys are cut to five bits, in a cache small enough that slots and chunks
// are recycled constantly. The stored
// result is a pure function of (row, bundle), so every hit must carry
// exactly that function's value in every field; a Get that returned a window
// into a chunk, or read its slot after unlocking, would sooner or later
// return one entry's prediction with another's guard (and is a race report
// under -race).
func TestCacheConcurrentHitsAreNeverTorn(t *testing.T) {
	const rowsN, workers, steps = 48, 8, 20000
	bundles := []*ModelVersion{cacheBundleA, cacheBundleB, cacheBundleC}
	valueOf := func(n, b int) Result {
		v := float64(n*len(bundles) + b)
		ood := (n+b)&1 != 0
		return Result{PredLog: v, Guard: Guard{EU: v + 0.5, AU: v + 0.25, OoD: ood, set: true}}
	}
	c := NewCache(2 * cacheShards)
	var wg sync.WaitGroup
	var hits [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			for i := 0; i < steps; i++ {
				n, b := rng.IntN(rowsN), rng.IntN(len(bundles))
				if len(diffRow(n)) == 0 {
					n++ // the empty rows are all one row
				}
				mv, row := bundles[b], diffRow(n)
				key := HashKey(mv.System, mv.Version, row) & 0x1f
				want := valueOf(n, b)
				switch op := rng.IntN(256); {
				case op == 0:
					c.InvalidateSystem(mv.System)
				case op < 128:
					c.Put(key, row, mv, want)
				default:
					res, ok := c.Get(key, row, mv)
					if !ok {
						continue
					}
					hits[w]++
					if res != want {
						t.Errorf("row %d bundle %d: hit returned %+v, only %+v was ever stored", n, b, res, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total < steps/10 {
		t.Errorf("only %d hits in %d operations: the test is not exercising the hit path", total, workers*steps)
	}
}

// fullThetaCache returns a default-sized cache, full and evicting, of the
// fixture's Theta rows that have each hit once, and the number of the next
// row thetaRow makes.
func fullThetaCache(b *testing.B) (*Cache, *dataset.Frame, int) {
	frame, _, _ := fixture(b)
	const capacity = 65536
	c := NewCache(capacity)
	var row []float64
	n := 0
	for ; n < 2*capacity; n++ {
		row = thetaRow(frame, n, row)
		key := HashKey("theta", 1, row)
		c.Put(key, row, cacheBundleA, Result{PredLog: float64(n)})
		c.Get(key, row, cacheBundleA)
	}
	return c, frame, n
}

// BenchmarkCachePut is one row the cache has not seen, keyed and inserted
// into a full cache, as Service.Predict does on a miss.
func BenchmarkCachePut(b *testing.B) {
	c, frame, n := fullThetaCache(b)
	var row []float64
	b.ReportAllocs()
	for b.Loop() {
		row = thetaRow(frame, n, row)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: float64(n)})
		n++
	}
}

// BenchmarkCacheGetHit is a hit on one of 4 096 resident rows, the key
// already computed.
func BenchmarkCacheGetHit(b *testing.B) {
	c, frame, n := fullThetaCache(b)
	rows := make([][]float64, 4096)
	keys := make([]uint64, len(rows))
	for i := range rows {
		rows[i] = thetaRow(frame, n-1-i, nil)
		keys[i] = HashKey("theta", 1, rows[i])
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, ok := c.Get(keys[i], rows[i], cacheBundleA); !ok {
			b.Fatal("resident row missed")
		}
		i = (i + 1) % len(rows)
	}
}
