package serve

import (
	"context"
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand/v2"
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
	// With room for 2 per shard, touching the older entry keeps it alive.
	c := NewCache(2 * cacheShards)
	shard := func(k uint64) uint64 { return k & (cacheShards - 1) }
	var rows [][]float64
	var keys []uint64
	for i := 0; len(rows) < 3; i++ {
		row := []float64{float64(i), 42}
		key := HashKey("theta", 1, row)
		if len(rows) == 0 || shard(key) == shard(keys[0]) {
			rows = append(rows, row)
			keys = append(keys, key)
		}
	}
	c.Put(keys[0], rows[0], cacheBundleA, Result{PredLog: 1})
	c.Put(keys[1], rows[1], cacheBundleA, Result{PredLog: 2})
	if _, ok := c.Get(keys[0], rows[0], cacheBundleA); !ok { // refresh 0; 1 is now LRU
		t.Fatal("warm entry missing")
	}
	c.Put(keys[2], rows[2], cacheBundleA, Result{PredLog: 3})
	if _, ok := c.Get(keys[0], rows[0], cacheBundleA); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get(keys[1], rows[1], cacheBundleA); ok {
		t.Error("least recently used entry survived")
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

// The cache's memory claims rest on its slots, and the map that indexes
// them, holding nothing the collector has to follow.
func TestCacheSlotIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the collector would scan every resident entry for it", path, ty.Kind())
		}
	}
	walk("cacheSlot", reflect.TypeOf(cacheSlot{}))
	index := reflect.TypeOf(cacheShard{}.index)
	walk("index key", index.Key())
	walk("index value", index.Elem())
	walk("slab element", reflect.TypeOf(rowSlab{}.b).Elem())
	if size := reflect.TypeOf(cacheSlot{}).Size(); size != 80 {
		t.Errorf("cacheSlot is %d bytes, want 80: a field is no longer packed into padding", size)
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

// filledCache returns a cache of capacity entries, every shard full, of rows
// of width features.
func filledCache(t *testing.T, capacity, width int) *Cache {
	t.Helper()
	c := NewCache(capacity)
	rng := rand.New(rand.NewPCG(uint64(capacity), uint64(width)))
	row := make([]float64, width)
	for n := 0; n < 2*capacity; n++ {
		row[0], row[width-1] = rng.Float64(), float64(n)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: float64(n)})
	}
	if c.Len() != capacity {
		t.Fatalf("cache holds %d entries after %d inserts, want %d", c.Len(), 2*capacity, capacity)
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

// The point of mapping the rows, and of storing them zero-suppressed: the
// default cache, full of the fixture's real Theta rows, costs the Go heap its
// slots and index only, and its chunk slabs hold no more than 640 bytes a
// resident row, where the 101 values at full width take 808.
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
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: float64(n)})
		for _, v := range row {
			values++
			if v == 0 {
				zeros++
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != capacity {
		t.Fatalf("cache holds %d entries after %d inserts, want %d", c.Len(), 2*capacity, capacity)
	}
	mapped := 0
	for i := range c.shards {
		mapped += len(*c.shards[i].slabs) * cacheSlabChunks * cacheChunkBytes
	}
	perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / capacity
	t.Logf("%.0f heap bytes a resident row, %.0f mapped; %d-feature rows, %.1f %% of values zero",
		perRow, float64(mapped)/capacity, len(row), 100*float64(zeros)/float64(values))
	if perRow >= 200 {
		t.Errorf("a resident row costs %.0f bytes of Go heap, want < 200 (slot + index)", perRow)
	}
	if perMapped := float64(mapped) / capacity; perMapped > 640 {
		t.Errorf("a resident row costs %.0f mapped bytes, want <= 640 (at full width it is %d)", perMapped, 8*len(row))
	}
	runtime.KeepAlive(c)
}

// Mappings are not the collector's to free. A full cache maps exactly the
// slabs its chunks need, and a cache nothing refers to any more gives them
// back: no Close, and no bytes left behind.
func TestCacheReleasesMappings(t *testing.T) {
	needMappedRows(t)
	// What earlier tests dropped is released first, so that the count moves
	// only by what happens here.
	if !awaitCleanup() || !awaitCleanup() {
		t.Fatal("no cleanup ran in 10 s")
	}
	// filledCache's rows have at most two non-zero values, so each takes one
	// chunk: two slabs a shard, the second part used.
	const perShard = cacheSlabChunks + 44
	base := cacheRowBytes.Load()
	func() {
		five, three := filledCache(t, cacheShards*perShard, 5), filledCache(t, cacheShards*perShard, 3)
		if got, want := cacheRowBytes.Load()-base, int64(2*cacheShards*2*cacheSlabChunks*cacheChunkBytes); got != want {
			t.Fatalf("two full caches hold %d mapped bytes, want %d", got, want)
		}
		runtime.KeepAlive(five)
		runtime.KeepAlive(three)
	}()
	for deadline := time.Now().Add(10 * time.Second); cacheRowBytes.Load() != base; {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatalf("%d mapped bytes outlive the caches that were dropped", cacheRowBytes.Load()-base)
		}
	}
}

// Chunk links are the one index the cache reads back from row storage. Every
// bit of one stored row's chunks is flipped in turn: a Get must then miss or
// return exactly what was stored, for that row and every other in its shard,
// and never panic. A flip in a word of the row must miss, and one outside
// what the row uses must not.
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
			res := Result{PredLog: float64(n), Pred: -float64(n)}
			c.Put(key, row, cacheBundleA, res)
			entries = append(entries, entry{key, row, res})
		}
	}
	s, target := &c.shards[0], entries[0]
	words := len(appendStored(nil, target.row)) / 8
	var chain [][]byte
	for b := s.chunk(uint64(s.slots[s.index[target.key]].first)); b != nil; b = s.chunk(binary.LittleEndian.Uint64(b)) {
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
		c.Put(HashKey("theta", 1, row), row, mv, Result{PredLog: 1, Guard: Guard{ErrorSource: SourceModeling}})
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

// Every Source* constant guard.go declares must survive Put -> Get: a new
// error class added without extending the cache's code table fails here, not
// in production as a silently uncached (or worse, relabelled) diagnosis.
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
	if len(sources) < 4 {
		t.Fatalf("found only %v in guard.go", sources)
	}
	c := NewCache(64)
	for i, src := range sources {
		row := []float64{float64(i)}
		key := HashKey("theta", 1, row)
		want := Guard{EU: float64(i) + 0.5, AU: 0.25, OoD: i&1 != 0, AtNoiseFloor: i&2 != 0, NoiseFloorPct: 0.057, ErrorSource: src}
		c.Put(key, row, cacheBundleA, Result{PredLog: 9, Pred: 1e9, Guard: want})
		if res, ok := c.Get(key, row, cacheBundleA); !ok || res != (Result{PredLog: 9, Pred: 1e9, Guard: want}) {
			t.Errorf("%s: Get = %+v %v, want the Guard as Put", src, res, ok)
		}
	}
	// A source outside the table is not cached at all.
	row := []float64{-1}
	key := HashKey("theta", 1, row)
	c.Put(key, row, cacheBundleA, Result{Guard: Guard{ErrorSource: "cosmic-rays"}})
	if res, ok := c.Get(key, row, cacheBundleA); ok {
		t.Errorf("a Guard with an unknown error source was cached as %+v", res.Guard)
	}
}

func TestCacheSteadyStateAllocs(t *testing.T) {
	c := NewCache(64 * cacheShards)
	row := make([]float64, 16)
	res := Result{PredLog: 9, Pred: 1e9, Guard: Guard{EU: 0.1, AU: 0.2, ErrorSource: SourceModeling}}
	n := 0
	put := func() {
		n++
		row[3] = float64(n)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, res)
	}
	for n < 4*64*cacheShards { // well past capacity: every shard is evicting
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Errorf("Put into a full cache allocates %.0f times, want 0", allocs)
	}
	key := HashKey("theta", 1, row)
	if allocs := testing.AllocsPerRun(1000, func() {
		if res, ok := c.Get(key, row, cacheBundleA); !ok || res.Guard.ErrorSource != SourceModeling {
			t.Fatal("resident entry missed")
		}
	}); allocs != 0 {
		t.Errorf("a cache hit allocates %.0f times, want 0", allocs)
	}
}

// TestNewCacheAllocatesNoStorage: building a cache costs the Cache value and
// sixteen empty maps — index, slots and rows are all paid for by the entries
// that arrive — and a shard filled from nothing ends up holding exactly its
// capacity in slots, with Put and Get as allocation-free as after a fill of
// a pre-sized cache.
func TestNewCacheAllocatesNoStorage(t *testing.T) {
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
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: 9, Pred: 1e9})
	}
	for n < 2<<16 { // twice the capacity: every shard is full and evicting
		put()
	}
	for i := range c.shards {
		s := &c.shards[i]
		if len(s.slots) != s.cap || cap(s.slots) != s.cap || len(s.index) != s.cap {
			t.Fatalf("shard %d: %d slots in an array of %d, %d indexed, capacity %d", i, len(s.slots), cap(s.slots), len(s.index), s.cap)
		}
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

// A Predict allocates only what it returns, results and their guard block:
// a hit costs nothing beyond them, nor does a row inserted into the full
// cache, nor the wave that evaluates the misses.
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
	if allocs := testing.AllocsPerRun(100, predict); allocs != 2 {
		t.Errorf("a fully cached 16-row Predict allocates %.0f times, want 2", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { fresh(); predict() }); allocs != 2 {
		t.Errorf("a 16-miss Predict on a full cache allocates %.0f times, want 2", allocs)
	}
	if m := svc.Metrics(); m.CacheHits.Load() != 101*16 {
		t.Errorf("%d cache hits, want the %d rows of the cached runs only", m.CacheHits.Load(), 101*16)
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
		return Result{PredLog: v, Pred: -v, Guard: Guard{
			EU: v + 0.5, AU: v + 0.25, NoiseFloorPct: v / 1024,
			OoD: n&1 != 0, AtNoiseFloor: n&2 != 0,
			ErrorSource: errorSources[(n+b)%len(errorSources)],
		}}
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
// fixture's Theta rows, and the number of the next row thetaRow makes.
func fullThetaCache(b *testing.B) (*Cache, *dataset.Frame, int) {
	frame, _, _ := fixture(b)
	const capacity = 65536
	c := NewCache(capacity)
	var row []float64
	n := 0
	for ; n < 2*capacity; n++ {
		row = thetaRow(frame, n, row)
		c.Put(HashKey("theta", 1, row), row, cacheBundleA, Result{PredLog: float64(n)})
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
