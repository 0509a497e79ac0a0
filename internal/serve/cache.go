package serve

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Duplicate-aware prediction cache. The paper's Sec. VI finding is that a
// large share of HPC I/O jobs are exact duplicates — same code, same input,
// hence an identical Darshan feature vector (23.5% of jobs on Theta, in a
// few thousand sets). At serving time that skew means a cache keyed on the
// feature vector converts the workload's duplicate mass directly into hits
// that skip model evaluation. The cache is sharded to keep lock contention
// off the hot path and LRU-evicting per shard so resident entries track the
// currently-recurring duplicate sets.
//
// A shard is a few flat arrays with no pointers in them: fixed-width slots
// linked into an exact LRU by index, a key -> slot map, and the rows as
// little-endian bit patterns in byte slabs at a fixed stride, mapped outside
// the Go heap. A full cache therefore costs the collector nothing to scan,
// its rows — most of its bytes — do not count towards the heap goal, an
// insert into it allocates nothing, and an entry cannot keep anything else
// alive — in particular not the bundle that produced it, which a slot names
// by number.

// cacheShards is the shard count (power of two; keys are well-mixed FNV
// hashes, so low bits select shards uniformly).
const cacheShards = 16

// cacheSlabRows is the number of rows in one slab of row storage. Slabs are
// allocated as the slots they back are first used, index and slots grow with
// the entries: a cache that is built and never filled costs no storage.
const cacheSlabRows = 256

// cacheRowBytes is what the process holds in mapped slabs at this moment: the
// ioserve_cache_row_bytes gauge.
var cacheRowBytes atomic.Int64

// rowSlab is the rows of cacheSlabRows slots. mapped says b came from mapRows
// and goes back through unmapRows; the heap slice that stands in wherever a
// mapping cannot be had never does.
type rowSlab struct {
	b      []byte
	mapped bool
}

func newRowSlab(n int) rowSlab {
	b, err := mapRows(n)
	if err != nil {
		return rowSlab{b: make([]byte, n)}
	}
	cacheRowBytes.Add(int64(n))
	return rowSlab{b: b, mapped: true}
}

func (sl rowSlab) release() {
	if sl.mapped {
		_ = unmapRows(sl.b) // fails only for what is not a mapping
		cacheRowBytes.Add(-int64(len(sl.b)))
	}
}

// cacheRows is a cache's row storage, one slab list a shard. It is allocated
// apart from the Cache because the cleanup that unmaps it once the Cache is
// unreachable holds it, and must not hold the Cache.
type cacheRows [cacheShards][]rowSlab

func (rows *cacheRows) release() {
	for _, slabs := range rows {
		for _, sl := range slabs {
			sl.release()
		}
	}
}

// HashKey identifies a (model version, feature vector) pair. It is an
// FNV-1a hash over the system name, version, and the raw feature bits —
// exact duplicates in the paper's sense collide by construction, numerically
// distinct rows essentially never do (and Get re-checks equality).
func HashKey(system string, version int, row []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(system); i++ {
		h ^= uint64(system[i])
		h *= prime64
	}
	h ^= uint64(version)
	h *= prime64
	for _, v := range row {
		bits := math.Float64bits(v)
		for k := 0; k < 64; k += 8 {
			h ^= (bits >> k) & 0xff
			h *= prime64
		}
	}
	return h
}

// bundleIDs numbers the bundles the process has cached under.
var bundleIDs atomic.Uint64

// bundleID returns mv's process-unique number, assigned on first use and
// never reused. The cache scopes entries by it: a bundle that replaces
// another under the same (system, version) is a different *ModelVersion,
// hence a different number, so entries written under the old artifacts can
// never answer for the new ones — before or after InvalidateSystem reclaims
// them — and no entry holds a retired bundle's trees reachable.
func (mv *ModelVersion) bundleID() uint64 {
	if id := mv.cacheID.Load(); id != 0 {
		return id
	}
	mv.cacheID.CompareAndSwap(0, bundleIDs.Add(1))
	return mv.cacheID.Load()
}

// cacheSlot is one resident prediction, minus its row (kept in the shard's
// slabs to disambiguate hash collisions). It must stay free of pointers,
// strings and slices: that is what keeps the cache out of GC mark work.
type cacheSlot struct {
	key        uint64
	bundle     uint64 // producing bundle's bundleID; 0 marks a free slot
	prev, next int32  // LRU neighbours by slot index, -1 at the ends; next also threads the free list
	width      int32  // features in the row, at most the shard's stride
	sys        int32  // index into the shard's systems table
	// The Result, with its Guard flattened to a fixed-width record.
	predLog, pred         float64
	eu, au, noiseFloorPct float64
	ood, atNoiseFloor     bool
	source                uint8 // 0: no Guard; else 1 + index into errorSources
}

// cacheShard is an independently locked LRU.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	index map[uint64]int32 // key -> slot
	slots []cacheSlot      // grows to exactly cap, then slots are recycled
	// head and tail are the most and least recently used slots, free the
	// head of the list of slots InvalidateSystem emptied; -1 when none.
	head, tail, free int32
	// (*slabs)[k] holds the rows of slots [k*cacheSlabRows, (k+1)*cacheSlabRows)
	// at stride bytes each; stride is the widest row seen so far.
	stride  int
	slabs   *[]rowSlab // this shard's entry in the cache's cacheRows
	systems []string   // system names, indexed by cacheSlot.sys
}

// Cache is a sharded LRU keyed by HashKey.
type Cache struct {
	shards [cacheShards]cacheShard
}

// NewCache builds a cache holding at most capacity entries (rounded up to a
// multiple of the shard count). Returns nil for capacity <= 0, and a nil
// *Cache is safe to use — it never hits.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c, rows := &Cache{}, new(cacheRows)
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = perShard
		s.index = make(map[uint64]int32) // no size hint: paid for by the entries that arrive
		s.head, s.tail, s.free = -1, -1, -1
		s.slabs = &rows[i]
	}
	// No Close: every access to a slab is under a shard lock whose deferred
	// unlock keeps c reachable, so the mappings outlive their last reader.
	runtime.AddCleanup(c, (*cacheRows).release, rows)
	return c
}

func (c *Cache) shard(key uint64) *cacheShard {
	return &c.shards[key&(cacheShards-1)]
}

func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bitwise comparison: a duplicate job replays the exact counters.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// slabRows is the number of rows in slab k: the last one is cut to the
// shard's capacity.
func (s *cacheShard) slabRows(k int) int {
	return min(cacheSlabRows, s.cap-k*cacheSlabRows)
}

// rowMatches reports whether stored, a window row returned, holds exactly
// row: as many values, each bit for bit — a duplicate job replays the exact
// counters.
func rowMatches(stored []byte, row []float64) bool {
	if len(stored) != 8*len(row) {
		return false
	}
	for j, v := range row {
		if binary.LittleEndian.Uint64(stored[8*j:]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// row returns slot i's row, a window into its slab that is only valid under
// the shard lock.
func (s *cacheShard) row(i int32) []byte {
	off := int(i) % cacheSlabRows * s.stride
	return (*s.slabs)[int(i)/cacheSlabRows].b[off : off+8*int(s.slots[i].width)]
}

// storeRow copies row into slot i's storage, first allocating the slot's
// slab if this is the first use of any slot in it and, in the rare case a
// wider schema than any seen so far arrives, re-striding the resident rows
// by copy and releasing the narrow slabs.
func (s *cacheShard) storeRow(i int32, row []float64) {
	if n := 8 * len(row); n > s.stride {
		for k, old := range *s.slabs {
			wide := newRowSlab(s.slabRows(k) * n)
			for r := 0; r < s.slabRows(k); r++ {
				copy(wide.b[r*n:], old.b[r*s.stride:(r+1)*s.stride])
			}
			(*s.slabs)[k] = wide
			old.release()
		}
		s.stride = n
	}
	if k := int(i) / cacheSlabRows; k == len(*s.slabs) {
		*s.slabs = append(*s.slabs, newRowSlab(s.slabRows(k)*s.stride))
	}
	s.slots[i].width = int32(len(row))
	dst := s.row(i)
	for j, v := range row {
		binary.LittleEndian.PutUint64(dst[8*j:], math.Float64bits(v))
	}
}

// unlink takes slot i out of the LRU order.
func (s *cacheShard) unlink(i int32) {
	e := &s.slots[i]
	if e.prev >= 0 {
		s.slots[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slots[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront makes the unlinked slot i the most recently used.
func (s *cacheShard) pushFront(i int32) {
	e := &s.slots[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// drop removes the entry in slot i and puts the slot on the free list.
func (s *cacheShard) drop(i int32) {
	s.unlink(i)
	e := &s.slots[i]
	delete(s.index, e.key)
	e.bundle, e.next = 0, s.free
	s.free = i
}

// claim returns an unlinked slot for a new entry: one on the free list, the
// next never-used one or, with the shard full, the least recently used
// entry's.
func (s *cacheShard) claim() int32 {
	if s.free < 0 && len(s.slots) >= s.cap {
		s.drop(s.tail)
	}
	if i := s.free; i >= 0 {
		s.free = s.slots[i].next
		return i
	}
	if n := len(s.slots); n == cap(s.slots) {
		// Doubling, but never past cap, where append's policy ends 27 % over.
		s.slots = append(make([]cacheSlot, 0, n+min(max(n, 64), s.cap-n)), s.slots...)
	}
	s.slots = append(s.slots, cacheSlot{})
	return int32(len(s.slots) - 1)
}

// Get returns the cached result for (key, row) under bundle mv and marks
// it most recent. Entries produced by a different bundle (a since-replaced
// version) never hit. The result comes back by value, copied under the
// shard lock, so nothing a caller holds aliases cache storage; its Guard's
// ErrorSource is empty when the entry has none.
func (c *Cache) Get(key uint64, row []float64, mv *ModelVersion) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	bundle := mv.bundleID()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok || s.slots[i].bundle != bundle || !rowMatches(s.row(i), row) {
		return Result{}, false
	}
	s.unlink(i)
	s.pushFront(i)
	e := &s.slots[i]
	res := Result{PredLog: e.predLog, Pred: e.pred}
	if e.source != 0 {
		res.Guard = Guard{
			EU: e.eu, AU: e.au, NoiseFloorPct: e.noiseFloorPct,
			OoD: e.ood, AtNoiseFloor: e.atNoiseFloor,
			ErrorSource: errorSources[e.source-1],
		}
	}
	return res, true
}

// Put inserts or refreshes a result, evicting the shard's least recently
// used entry when full. The row is copied, so the request's row block is
// not retained. A Guard whose ErrorSource the code table does not know is
// not cached at all, rather than stored as something else.
func (c *Cache) Put(key uint64, row []float64, mv *ModelVersion, res Result) {
	if c == nil {
		return
	}
	g := res.Guard
	var source uint8
	if g.ErrorSource != "" {
		source = uint8(slices.Index(errorSources[:], g.ErrorSource) + 1)
		if source == 0 {
			return
		}
	}
	bundle := mv.bundleID()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if ok {
		s.unlink(i)
	} else {
		i = s.claim()
		s.index[key] = i
	}
	s.pushFront(i)
	sys := slices.Index(s.systems, mv.System)
	if sys < 0 {
		sys = len(s.systems)
		s.systems = append(s.systems, mv.System)
	}
	// On a hash collision the resident entry may describe a different
	// feature vector: the row is replaced with everything else, so a
	// refreshed result stays paired with the row that produced it.
	s.storeRow(i, row)
	e := &s.slots[i]
	e.key, e.bundle, e.sys = key, bundle, int32(sys)
	e.predLog, e.pred = res.PredLog, res.Pred
	e.eu, e.au, e.noiseFloorPct = g.EU, g.AU, g.NoiseFloorPct
	e.ood, e.atNoiseFloor, e.source = g.OoD, g.AtNoiseFloor, source
}

// InvalidateSystem drops every resident entry belonging to a system,
// returning the number removed. The reloader calls this when a system's
// version set changes: bundle-scoped entries already cannot serve stale
// results, so this is about promptly making room for the new bundle's
// entries (and making "stale entries are gone" directly observable).
func (c *Cache) InvalidateSystem(system string) int {
	if c == nil {
		return 0
	}
	dropped := 0
	for k := range c.shards {
		s := &c.shards[k]
		s.mu.Lock()
		if sys := slices.Index(s.systems, system); sys >= 0 {
			for i := range s.slots {
				if e := &s.slots[i]; e.bundle != 0 && e.sys == int32(sys) {
					s.drop(int32(i))
					dropped++
				}
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the resident entry count across shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}
