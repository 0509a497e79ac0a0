package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Duplicate-aware prediction cache. The paper's Sec. VI finding is that a
// large share of HPC I/O jobs are exact duplicates — same code, same input,
// hence an identical Darshan feature vector (23.5% of jobs on Theta, in a
// few thousand sets). At serving time that skew means a cache keyed on the
// feature vector converts the workload's duplicate mass directly into hits
// that skip model evaluation. The cache is sharded to keep lock contention
// off the hot path. The same finding says most rows never come back, so each
// shard is a segmented LRU: a row is stored on a probation list and moves to a
// protected list of seven eighths of the shard's slots when it first hits, and
// evictions take probation's least recently used entry. One-off rows then
// neither displace the recurring duplicate sets nor map more storage than
// probation holds, and a protected row that stops hitting is moved back to
// probation as newer ones arrive, so the protected list tracks the
// currently-recurring sets. Probation starts at a 64th of the slots and
// widens on evidence, as 2Q's ghost queue does: the keys it evicts are kept
// in a small ghost table, and each new row found there — a row that came back
// after probation dropped it — widens it by a 32nd, up to an eighth. It never
// narrows: the slabs a wider list mapped stay mapped while the cache lives.
//
// A shard is a few flat arrays with no pointers in them: fixed-width slots
// linked into the two lists by index, the ghost table, a bucket table that
// chains the slots by key through one link in each, and the rows in byte
// slabs. All of it is mapped outside the Go heap — every shard's slots,
// ghosts and buckets in one mapping a cache, made at full capacity, whose
// pages are touched only as entries arrive. A full cache therefore costs the
// collector nothing to scan and nothing towards the heap goal, an insert into
// it allocates nothing, and an entry cannot keep anything else alive — in
// particular not the bundle that produced it, which a slot names by number.
//
// A row is stored zero-suppressed: ceil(width/64) bitmap words, bit j set
// when feature j's bit pattern is not all zeros, then the non-zero bit
// patterns in order. Most of a Darshan row's counters are unused (about 40 %
// of a Theta row's values are exactly zero), and the encoding is lossless bit
// for bit: -0, NaN payloads and subnormals are non-zero patterns like any
// other, so Get still compares every bit. The words fill fixed 128-byte
// chunks carved from the slabs. Word 0 of a chunk links to the row's next
// chunk, a slot names its first, and the chunks of a dropped row go on a
// per-shard free list threaded through the same links. Chunk links, bucket
// words and the slots' chain links are indexes the cache reads back from
// mapped memory, so none is followed unless it names a chunk or slot the
// shard has handed out, and no walk goes further than a row of its width can
// fill or the shard has slots.

// cacheShards is the shard count (power of two; keys are well-mixed FNV
// hashes, so low bits select shards uniformly).
const cacheShards = 16

const (
	// cacheChunkBytes is the unit of row storage: a link word and
	// chunkWords words of the row.
	cacheChunkBytes = 128
	chunkWords      = cacheChunkBytes/8 - 1
	// cacheSlabChunks is the number of chunks in one slab. Slabs are mapped
	// as their chunks are first needed, and the pages of the slot and bucket
	// mapping as entries arrive: a cache that is built and never filled
	// costs no storage.
	cacheSlabChunks = 256
	// probationShare is the part of a shard's slots, as a divisor, that the
	// probation list may widen to; the protected list holds the rest.
	// probationStart is the part it starts at, and ghostShare both the part
	// a returning row widens it by and the size of the ghost table.
	probationShare = 8
	probationStart = 64
	ghostShare     = 32
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

// cacheRows is a cache's mapped storage: one slab list a shard, and meta,
// the mapping that holds every shard's slots, ghosts and buckets (nil when
// they are heap arrays; it is not row storage, so cacheRowBytes does not
// count it).
// It is allocated apart from the Cache because the cleanup that unmaps it
// once the Cache is unreachable holds it, and must not hold the Cache.
type cacheRows struct {
	slabs [cacheShards][]rowSlab
	meta  []byte
}

func (rows *cacheRows) release() {
	for _, slabs := range rows.slabs {
		for _, sl := range slabs {
			sl.release()
		}
	}
	if rows.meta != nil {
		_ = unmapRows(rows.meta) // fails only for what is not a mapping
	}
}

// metaArray returns n zeroed Ts from the front of meta, and the bytes after
// them; with meta nil — no mapping could be had — a plain heap array. This is
// the module's one conversion through unsafe.Pointer, and it is safe because
// a T holds no pointer the collector would have to find
// (TestCacheSlotIsPointerFree walks the types that come through here), a T
// at the front of a mapping or after whole cacheSlots and ghosts is aligned,
// and the cleanup unmaps meta only once the Cache, under whose shard locks
// every access is made, is unreachable.
func metaArray[T any](meta []byte, n int) ([]T, []byte) {
	if meta == nil {
		return make([]T, n), nil
	}
	var t T
	size := n * int(unsafe.Sizeof(t))
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(meta[:size]))), n), meta[size:]
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
	prev, next int32  // neighbours on the slot's list by index, -1 at the ends; next also threads the free list
	width      int32  // features in the row
	sys        int32  // index into the shard's systems table
	// The Result, with its Guard flattened to a fixed-width record.
	predLog      float64
	eu, au       float64
	first        int32 // the row's first chunk, -1 when it has none
	chain        int32 // 1 + the next slot in this key's bucket, 0 at the end
	guarded, ood bool  // the Guard's set and OoD
	hot          bool  // the entry is on the protected list
}

// slotList is one of a shard's two recency lists: its most and least
// recently used slots, -1 when empty, and how many slots it holds.
type slotList struct {
	head, tail, n int32
}

// cacheShard is an independently locked segmented LRU.
type cacheShard struct {
	mu sync.Mutex
	// slots is the shard's capacity in slots, of which used have been
	// handed out. buckets is a power-of-two table of chains, each word 1 +
	// the chain's first slot, 0 when empty; a key's bucket is the top bits
	// of its Fibonacci product, shift says how many.
	slots   []cacheSlot
	buckets []int32
	shift   uint8
	used    int32
	// probation holds the entries that have not hit since they were stored
	// or were moved back from a full protected list, at most window of them,
	// protected those that have hit; free heads the list of slots
	// InvalidateSystem emptied, -1 when none.
	probation, protected slotList
	window, free         int32
	// ghosts is a direct-mapped table of the keys probation evicted, each
	// with the shard's key bits set so that none reads as an empty word.
	ghosts []uint64
	// (*slabs)[k] holds chunks [k*cacheSlabChunks, (k+1)*cacheSlabChunks),
	// of which chunks have been handed out so far; spare heads the list of
	// those dropped rows gave back, -1 when empty.
	chunks, spare int32
	slabs         *[]rowSlab // this shard's entry in the cache's cacheRows.slabs
	systems       []string   // system names, indexed by cacheSlot.sys
	enc           []byte     // the stored form of the row being put or looked up, encoded once
}

// Cache is a sharded segmented LRU keyed by HashKey.
type Cache struct {
	shards [cacheShards]cacheShard
}

// NewCache builds a cache holding at most capacity entries (rounded up to a
// multiple of the shard count), at most an eighth of them entries that have
// not hit since they were stored, and at first a 64th. Returns nil for
// capacity <= 0, and a nil *Cache is safe to use — it never hits.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	log2 := bits.Len(uint(perShard - 1))
	buckets, ghosts := 1<<log2, max(1, perShard/ghostShare)
	c, rows := &Cache{}, new(cacheRows)
	meta, err := mapRows(cacheShards * (perShard*int(unsafe.Sizeof(cacheSlot{})) + ghosts*8 + buckets*4))
	if err == nil {
		rows.meta = meta
	}
	slots, rest := metaArray[cacheSlot](rows.meta, cacheShards*perShard)
	ghost, rest := metaArray[uint64](rest, cacheShards*ghosts)
	index, _ := metaArray[int32](rest, cacheShards*buckets)
	for i := range c.shards {
		s := &c.shards[i]
		s.slots = slots[i*perShard : (i+1)*perShard : (i+1)*perShard]
		s.ghosts = ghost[i*ghosts : (i+1)*ghosts : (i+1)*ghosts]
		s.buckets = index[i*buckets : (i+1)*buckets : (i+1)*buckets]
		s.shift = uint8(64 - log2)
		s.probation, s.protected = slotList{-1, -1, 0}, slotList{-1, -1, 0}
		s.window = int32(max(1, perShard/probationStart))
		s.free, s.spare = -1, -1
		s.slabs = &rows.slabs[i]
	}
	// No Close: every access to a slot or slab is under a shard lock whose
	// deferred unlock keeps c reachable, so the mappings outlive their last
	// reader.
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

// slot returns the slot a bucket word or chain link names, or -1: for 0, the
// end of a chain, and for any word that names no slot the shard has handed
// out.
func (s *cacheShard) slot(w int32) int32 {
	if w <= 0 || w > s.used {
		return -1
	}
	return w - 1
}

// bucket returns the word that heads key's chain: Fibonacci hashing, by
// 2^64/φ, so that the bucket depends on every bit of the key.
func (s *cacheShard) bucket(key uint64) *int32 {
	return &s.buckets[key*0x9e3779b97f4a7c15>>s.shift]
}

// find returns the slot of key's entry, or -1. The walk visits no more slots
// than the shard has, whatever the links say.
func (s *cacheShard) find(key uint64) int32 {
	i := s.slot(*s.bucket(key))
	for n := len(s.slots); i >= 0 && n > 0; n-- {
		if e := &s.slots[i]; e.key == key && e.bundle != 0 {
			return i
		}
		i = s.slot(s.slots[i].chain)
	}
	return -1
}

// index puts slot i at the head of its key's chain.
func (s *cacheShard) index(i int32) {
	b := s.bucket(s.slots[i].key)
	s.slots[i].chain, *b = *b, i+1
}

// unindex takes slot i out of its key's chain. A chain that does not reach i
// within as many steps as the shard has slots is left as it is: whatever a
// lookup then reaches through it, it compares key, bundle and row as ever.
func (s *cacheShard) unindex(i int32) {
	p := s.bucket(s.slots[i].key)
	for n := len(s.slots); n > 0; n-- {
		switch j := s.slot(*p); j {
		case -1:
			return
		case i:
			*p = s.slots[i].chain
			return
		default:
			p = &s.slots[j].chain
		}
	}
}

// probationCap is how many entries the probation list may widen to, and
// the protected list leaves room for.
func (s *cacheShard) probationCap() int32 {
	return max(1, int32(len(s.slots))/probationShare)
}

// ghost returns the ghost-table word for key, and what the word holds once
// probation has evicted key: key with every shard bit set, which no two of
// the shard's keys share and none makes zero.
func (s *cacheShard) ghost(key uint64) (*uint64, uint64) {
	return &s.ghosts[key/cacheShards%uint64(len(s.ghosts))], key | (cacheShards - 1)
}

// list returns the list an entry is on, by its hot flag.
func (s *cacheShard) list(e *cacheSlot) *slotList {
	if e.hot {
		return &s.protected
	}
	return &s.probation
}

// unlink takes slot i out of its list.
func (s *cacheShard) unlink(i int32) {
	e, l := &s.slots[i], s.list(&s.slots[i])
	if e.prev >= 0 {
		s.slots[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		s.slots[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	l.n--
}

// pushFront makes the unlinked slot i the most recently used of its list.
func (s *cacheShard) pushFront(i int32) {
	e, l := &s.slots[i], s.list(&s.slots[i])
	e.prev, e.next = -1, l.head
	if l.head >= 0 {
		s.slots[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
	l.n++
}

// drop removes the entry in slot i and puts the slot on the free list.
func (s *cacheShard) drop(i int32) {
	s.unlink(i)
	s.unindex(i)
	e := &s.slots[i]
	s.freeRow(e)
	e.bundle, e.next = 0, s.free
	s.free = i
}

// claim returns an unlinked slot for a new entry with key. A key probation
// evicted before widens it first. A full probation list gives up its least
// recently used entry, into the ghost table, before a never-used slot or
// chunk is taken, so the storage a shard maps grows only with the entries
// that hit or come back. It is the only eviction: protected holds at most the
// slots probation can widen to, so a shard with probation short of full has a
// slot free or unused.
func (s *cacheShard) claim(key uint64) int32 {
	if g, word := s.ghost(key); *g == word {
		*g = 0
		s.window = min(s.window+max(1, int32(len(s.slots))/ghostShare), s.probationCap())
	}
	if j := s.probation.tail; s.probation.n >= s.window {
		g, word := s.ghost(s.slots[j].key)
		*g = word
		s.drop(j)
	}
	if i := s.free; i >= 0 {
		s.free = s.slots[i].next
		return i
	}
	s.slots[s.used].first = -1
	s.used++
	return s.used - 1
}

// Get returns the cached result for (key, row) under bundle mv and makes it
// the most recently used protected entry. Entries produced by a different
// bundle (a since-replaced version) never hit. The result comes back by
// value, copied under the shard lock, so nothing a caller holds aliases cache
// storage; its Guard is zero when the entry has none.
func (c *Cache) Get(key uint64, row []float64, mv *ModelVersion) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	bundle := mv.bundleID()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.find(key)
	if i < 0 || s.slots[i].bundle != bundle || !s.rowMatches(&s.slots[i], row) {
		return Result{}, false
	}
	s.unlink(i)
	e := &s.slots[i]
	e.hot = true
	s.pushFront(i)
	if s.protected.n > int32(len(s.slots))-s.probationCap() {
		// A full protected list moves its least recently used entry to the
		// head of probation, which the promotion has just made room on.
		j := s.protected.tail
		s.unlink(j)
		s.slots[j].hot = false
		s.pushFront(j)
	}
	res := Result{PredLog: e.predLog}
	if e.guarded {
		res.Guard = Guard{EU: e.eu, AU: e.au, OoD: e.ood, set: true}
	}
	return res, true
}

// Put inserts a result on probation or refreshes one on the list it is on,
// evicting as claim says. The row is copied, so the request's row block is
// not retained.
func (c *Cache) Put(key uint64, row []float64, mv *ModelVersion, res Result) {
	if c == nil {
		return
	}
	bundle := mv.bundleID()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.find(key)
	if i >= 0 {
		s.unlink(i)
	} else {
		i = s.claim(key)
		s.slots[i].key, s.slots[i].hot = key, false
		s.index(i)
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
	e.bundle, e.sys = bundle, int32(sys)
	e.predLog = res.PredLog
	g := res.Guard
	e.eu, e.au, e.guarded, e.ood = g.EU, g.AU, g.set, g.OoD
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
			for i := range s.slots[:s.used] {
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
		n += int(s.probation.n + s.protected.n)
		s.mu.Unlock()
	}
	return n
}
