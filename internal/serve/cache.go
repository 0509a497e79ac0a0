package serve

import (
	"bytes"
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
// linked into an exact LRU by index, a key -> slot map, and the rows in byte
// slabs mapped outside the Go heap. A full cache therefore costs the
// collector nothing to scan, its rows — most of its bytes — do not count
// towards the heap goal, an insert into it allocates nothing, and an entry
// cannot keep anything else alive — in particular not the bundle that
// produced it, which a slot names by number.
//
// A row is stored zero-suppressed: ceil(width/64) bitmap words, bit j set
// when feature j's bit pattern is not all zeros, then the non-zero bit
// patterns in order. Most of a Darshan row's counters are unused (about 40 %
// of a Theta row's values are exactly zero), and the encoding is lossless bit
// for bit: -0, NaN payloads and subnormals are non-zero patterns like any
// other, so Get still compares every bit. The words fill fixed 128-byte
// chunks carved from the slabs. Word 0 of a chunk links to the row's next
// chunk, a slot names its first, and the chunks of a dropped row go on a
// per-shard free list threaded through the same links. Links are the one
// index the cache reads back from row storage, so none is followed unless it
// names a chunk the shard has handed out, and no walk goes further than a
// row of its width can fill.

// cacheShards is the shard count (power of two; keys are well-mixed FNV
// hashes, so low bits select shards uniformly).
const cacheShards = 16

const (
	// cacheChunkBytes is the unit of row storage: a link word and
	// chunkWords words of the row.
	cacheChunkBytes = 128
	chunkWords      = cacheChunkBytes/8 - 1
	// cacheSlabChunks is the number of chunks in one slab. Slabs are mapped
	// as their chunks are first needed, index and slots grow with the
	// entries: a cache that is built and never filled costs no storage.
	cacheSlabChunks = 256
)

// cacheRowBytes is what the process holds in mapped slabs at this moment: the
// ioserve_cache_row_bytes gauge.
var cacheRowBytes atomic.Int64

// rowSlab is cacheSlabChunks chunks of rows. mapped says b came from mapRows
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
// chunks to disambiguate hash collisions). It must stay free of pointers,
// strings and slices: that is what keeps the cache out of GC mark work.
type cacheSlot struct {
	key        uint64
	bundle     uint64 // producing bundle's bundleID; 0 marks a free slot
	prev, next int32  // LRU neighbours by slot index, -1 at the ends; next also threads the free list
	width      int32  // features in the row
	sys        int32  // index into the shard's systems table
	// The Result, with its Guard flattened to a fixed-width record.
	predLog, pred         float64
	eu, au, noiseFloorPct float64
	first                 int32 // the row's first chunk, -1 when it has none; beside the bools, it fills the padding
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
	// (*slabs)[k] holds chunks [k*cacheSlabChunks, (k+1)*cacheSlabChunks),
	// of which chunks have been handed out so far; spare heads the list of
	// those dropped rows gave back, -1 when empty.
	chunks, spare int32
	slabs         *[]rowSlab // this shard's entry in the cache's cacheRows
	systems       []string   // system names, indexed by cacheSlot.sys
	enc           []byte     // the stored form of the row being put or looked up, encoded once
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
		s.head, s.tail, s.free, s.spare = -1, -1, -1, -1
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

// appendStored appends row's stored form to dst: the bitmap words, then the
// non-zero bit patterns, each little-endian.
func appendStored(dst []byte, row []float64) []byte {
	for k := 0; k < len(row); k += 64 {
		var bitmap uint64
		for j, v := range row[k:min(k+64, len(row))] {
			if math.Float64bits(v) != 0 {
				bitmap |= 1 << j
			}
		}
		dst = binary.LittleEndian.AppendUint64(dst, bitmap)
	}
	for _, v := range row {
		if bits := math.Float64bits(v); bits != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, bits)
		}
	}
	return dst
}

// chunk returns chunk c, a window into its slab that is only valid under the
// shard lock, or nil if the shard has handed out no chunk c: a link read back
// from storage goes through here before it is followed.
func (s *cacheShard) chunk(c uint64) []byte {
	if c >= uint64(s.chunks) {
		return nil
	}
	off := int(c) % cacheSlabChunks * cacheChunkBytes
	return (*s.slabs)[int(c)/cacheSlabChunks].b[off : off+cacheChunkBytes]
}

// takeChunk returns a chunk for a row being stored: a dropped row's if there
// is one, else the next never used, mapping a new slab when the last is full.
func (s *cacheShard) takeChunk() (int32, []byte) {
	if c, b := s.spare, s.chunk(uint64(s.spare)); b != nil {
		s.spare = -1
		if next := binary.LittleEndian.Uint64(b); s.chunk(next) != nil {
			s.spare = int32(next)
		}
		return c, b
	}
	if int(s.chunks) == len(*s.slabs)*cacheSlabChunks {
		*s.slabs = append(*s.slabs, newRowSlab(cacheSlabChunks*cacheChunkBytes))
	}
	s.chunks++
	return s.chunks - 1, s.chunk(uint64(s.chunks - 1))
}

// freeRow gives slot e's chunks back to the shard. The walk to the last of
// them ends at a link out of range, and at the most chunks a row of e's
// width can fill whatever the links say.
func (s *cacheShard) freeRow(e *cacheSlot) {
	last := s.chunk(uint64(e.first))
	if last == nil {
		return
	}
	for n := ((int(e.width)+63)/64 + int(e.width) + chunkWords - 1) / chunkWords; n > 1; n-- {
		next := s.chunk(binary.LittleEndian.Uint64(last))
		if next == nil {
			break
		}
		last = next
	}
	binary.LittleEndian.PutUint64(last, uint64(s.spare))
	s.spare, e.first = e.first, -1
}

// storeRow gives back the chunks slot e holds and writes row's stored form
// into new ones, the last chunk's link out of range.
func (s *cacheShard) storeRow(e *cacheSlot, row []float64) {
	s.freeRow(e)
	e.width = int32(len(row))
	s.enc = appendStored(s.enc[:0], row)
	var prev []byte
	for rest := s.enc; len(rest) > 0; {
		c, b := s.takeChunk()
		if prev == nil {
			e.first = c
		} else {
			binary.LittleEndian.PutUint64(prev, uint64(c))
		}
		binary.LittleEndian.PutUint64(b, math.MaxUint64)
		rest = rest[copy(b[8:], rest):]
		prev = b
	}
}

// rowMatches reports whether slot e holds exactly row: as many values, each
// bit for bit — a duplicate job replays the exact counters. It reads no more
// chunks than row's own stored form fills, and a link out of range is a
// mismatch.
func (s *cacheShard) rowMatches(e *cacheSlot, row []float64) bool {
	if int(e.width) != len(row) {
		return false
	}
	s.enc = appendStored(s.enc[:0], row)
	b := s.chunk(uint64(e.first))
	for rest := s.enc; len(rest) > 0; b = s.chunk(binary.LittleEndian.Uint64(b)) {
		if b == nil {
			return false
		}
		n := min(len(rest), 8*chunkWords)
		if !bytes.Equal(b[8:8+n], rest[:n]) {
			return false
		}
		rest = rest[n:]
	}
	return true
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
	s.freeRow(e)
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
	s.slots = append(s.slots, cacheSlot{first: -1})
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
	if !ok || s.slots[i].bundle != bundle || !s.rowMatches(&s.slots[i], row) {
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
	e := &s.slots[i]
	s.storeRow(e, row)
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
