package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// The cache as it was before it was rebuilt on flat arrays — a
// map[uint64]*list.Element over container/list with a heap-copied row, a
// private Guard copy and the bundle pointer per entry — kept as the oracle
// that runCacheOps, at the bottom of this file, drives the live Cache
// against: same hit/miss sequence, same values, same eviction order, same
// drop counts.

// refEntry is one resident prediction.
type refEntry struct {
	key uint64
	row []float64 // kept to disambiguate hash collisions
	// mv is the exact bundle that produced res. A hit requires pointer
	// equality with the bundle being served: when a live reload replaces a
	// version in place, the new bundle is a new pointer, so entries from
	// the old artifacts can never answer for the new ones — even in the
	// window before InvalidateSystem reclaims them.
	mv  *ModelVersion
	res Result
}

// refShard is an independently locked LRU.
type refShard struct {
	mu    sync.Mutex
	cap   int
	items map[uint64]*list.Element
	order *list.List // front = most recent
}

// refCache is a sharded LRU keyed by HashKey.
type refCache struct {
	shards [cacheShards]refShard
}

// newRefCache builds a cache holding at most capacity entries (rounded up to a
// multiple of the shard count). Returns nil for capacity <= 0, and a nil
// *Cache is safe to use — it never hits.
func newRefCache(capacity int) *refCache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &refCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[uint64]*list.Element, perShard)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *refCache) shard(key uint64) *refShard {
	return &c.shards[key&(cacheShards-1)]
}

// Get returns the cached result for (key, row) under bundle mv and marks
// it most recent. Entries produced by a different bundle pointer (a since-
// replaced version) never hit.
func (c *refCache) Get(key uint64, row []float64, mv *ModelVersion) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return Result{}, false
	}
	e := el.Value.(*refEntry)
	if e.mv != mv || !rowsEqual(e.row, row) {
		return Result{}, false
	}
	s.order.MoveToFront(el)
	return e.res, true
}

// Put inserts or refreshes a result, evicting the shard's least recently
// used entry when full.
func (c *refCache) Put(key uint64, row []float64, mv *ModelVersion, res Result) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*refEntry)
		// Replace the row as well: on a hash collision the resident entry
		// may describe a different feature vector, and a refreshed result
		// must stay paired with the row that produced it.
		if !rowsEqual(e.row, row) {
			e.row = append(e.row[:0], row...)
		}
		e.mv = mv
		e.res = res
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.items, oldest.Value.(*refEntry).key)
		}
	}
	s.items[key] = s.order.PushFront(&refEntry{
		key: key,
		row: append([]float64(nil), row...),
		mv:  mv,
		res: res,
	})
}

// InvalidateSystem drops every resident entry belonging to a system,
// returning the number removed. The reloader calls this when a system's
// version set changes: pointer-scoped entries already cannot serve stale
// results, so this is about promptly reclaiming memory from retired
// bundles (and making "stale entries are gone" directly observable).
func (c *refCache) InvalidateSystem(system string) int {
	if c == nil {
		return 0
	}
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; {
			next := el.Next()
			e := el.Value.(*refEntry)
			if e.mv.System == system {
				s.order.Remove(el)
				delete(s.items, e.key)
				dropped++
			}
			el = next
		}
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the resident entry count across shards.
func (c *refCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Differential driver. A run is a byte string: a three-byte header picking
// the capacity, the size of the row universe and how many key bits survive,
// then four bytes an operation (kind, two bytes of row number, a selector).
// Every operation is applied to a Cache and a refCache and everything either
// reports is compared; the same interpreter serves the seeded scenarios and
// the fuzz target.

var (
	// Two bundles with one (system, version) — a live reload's before and
	// after — plus another version and another system.
	diffBundles = [...]*ModelVersion{
		{System: "theta", Version: 1}, {System: "theta", Version: 1},
		{System: "theta", Version: 2}, {System: "cori", Version: 1},
	}
	diffSystems   = [...]string{"theta", "cori", "mira"} // mira is never cached
	diffCapacity  = [...]int{cacheShards, 3 * cacheShards, 40 * cacheShards, 300 * cacheShards}
	diffUniverse  = [...]int{24, 300, 6000}
	diffKeyMask   = [...]uint64{^uint64(0), 0xff, 0x1f} // fewer bits: forced collisions
	diffRowWidths = [...]int{2, 0, 5, 3, 64, 65, 101, 138}
)

// diffRow is row number n: its width depends on n alone, so rows of all
// widths share shards, and the multiples of eight are the narrow ones a
// scenario can fill a shard with before anything wider arrives. The four
// wide widths end at, and just past, a bitmap word, and span chunks; their
// rows are mostly zeros, as Darshan rows are. Of three rows 8 apart, the
// second carries the first's non-zero values (a subnormal and a NaN payload
// among them) at the same places with -0 for +0, and the third one place
// along.
func diffRow(n int) []float64 {
	row := make([]float64, diffRowWidths[n%len(diffRowWidths)])
	if len(row) < 64 {
		for j := range row {
			row[j] = float64(n*7 + j)
		}
		return row
	}
	g := n / len(diffRowWidths)
	variant, id, k := g%3, g/3, 0
	for j := range row {
		if (j+variant/2)%(2+id%3) != 0 {
			if variant == 1 {
				row[j] = math.Copysign(0, -1)
			}
			continue
		}
		switch k++; k % 7 {
		case 3:
			row[j] = math.Float64frombits(uint64(id*64 + k))
		case 5:
			row[j] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(id*64+k))
		default:
			row[j] = float64(id*7 + k)
		}
	}
	return row
}

// diffEntry is row number n with its key under each of diffBundles.
type diffEntry struct {
	row  []float64
	keys [len(diffBundles)]uint64
}

// diffEntries holds every row number a run can draw, built once: making and
// hashing the wide rows afresh was most of a run's time, and the fuzzer
// needs many runs a second.
var diffEntries = sync.OnceValue(func() []diffEntry {
	es := make([]diffEntry, diffUniverse[len(diffUniverse)-1])
	for n := range es {
		es[n].row = diffRow(n)
		for b, mv := range diffBundles {
			es[n].keys[b] = HashKey(mv.System, mv.Version, es[n].row)
		}
	}
	return es
})

func runCacheOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) < 3 {
		return
	}
	capacity := diffCapacity[int(ops[0])%len(diffCapacity)]
	universe := diffUniverse[int(ops[1])%len(diffUniverse)]
	mask := diffKeyMask[int(ops[2])%len(diffKeyMask)]
	c, ref := NewCache(capacity), newRefCache(capacity)

	entries := diffEntries()
	get := func(step, n, b int) {
		row, key, mv := entries[n].row, entries[n].keys[b]&mask, diffBundles[b]
		got, ok := c.Get(key, row, mv)
		want, wantOK := ref.Get(key, row, mv)
		if ok != wantOK {
			t.Fatalf("step %d: Get(row %d) hit = %v, reference %v", step, n, ok, wantOK)
		}
		if !ok {
			return
		}
		if got != want {
			t.Fatalf("step %d: Get(row %d) = %+v, reference %+v", step, n, got, want)
		}
	}

	step := 0
	for ops = ops[3:]; len(ops) >= 4; ops, step = ops[4:], step+1 {
		n := int(binary.BigEndian.Uint16(ops[1:3])) % universe
		sel := int(ops[3])
		b := sel % len(diffBundles)
		switch kind := ops[0]; {
		case kind < 112:
			// The stored result is a function of the step, so an entry that
			// outlives a refresh, or answers for the wrong row, shows.
			res := Result{PredLog: float64(step), Pred: float64(n)}
			if step%5 != 0 {
				res.Guard = Guard{
					EU: float64(step) / 8, AU: float64(n) / 4, NoiseFloorPct: float64(sel) / 256,
					OoD: step&1 != 0, AtNoiseFloor: step&2 != 0,
					ErrorSource: errorSources[step%len(errorSources)],
				}
			}
			row, key, mv := entries[n].row, entries[n].keys[b]&mask, diffBundles[b]
			c.Put(key, row, mv, res)
			ref.Put(key, row, mv, res)
		case kind < 255:
			get(step, n, b)
		default:
			system := diffSystems[sel%len(diffSystems)]
			if got, want := c.InvalidateSystem(system), ref.InvalidateSystem(system); got != want {
				t.Fatalf("step %d: InvalidateSystem(%s) dropped %d, reference %d", step, system, got, want)
			}
		}
		if got, want := c.Len(), ref.Len(); got != want {
			t.Fatalf("step %d: Len = %d, reference %d", step, got, want)
		}
	}
	// What is left resident, and in which order it would be evicted.
	for n := 0; n < min(universe, 600); n++ {
		get(step, n, n%len(diffBundles))
	}
}

// diffOps builds a seeded run of n operations, passing each drawn row number
// through pick when it is set.
func diffOps(seed uint64, header [3]byte, n int, pick func(step int, row uint16) uint16) []byte {
	rng := rand.New(rand.NewPCG(seed, 17))
	ops := header[:]
	for step := 0; step < n; step++ {
		row := uint16(rng.UintN(1 << 16))
		if pick != nil {
			row = pick(step, row)
		}
		ops = append(ops, byte(rng.UintN(256)), byte(row>>8), byte(row), byte(rng.UintN(256)))
	}
	return ops
}

// narrowUntil draws only rows of the narrowest non-empty width before step
// from, so that the first wider row arrives in shards that already hold
// entries.
func narrowUntil(from int) func(int, uint16) uint16 {
	return func(step int, row uint16) uint16 {
		if step < from {
			return row &^ 7
		}
		return row
	}
}

// wideOnly draws only the zero-heavy rows.
func wideOnly(_ int, row uint16) uint16 { return row | 4 }

var diffScenarios = []struct {
	name   string
	header [3]byte // indexes into diffCapacity, diffUniverse, diffKeyMask
	n      int
	pick   func(step int, row uint16) uint16
}{
	{"one entry per shard", [3]byte{0, 0, 0}, 4000, nil},
	{"one entry per shard, colliding keys", [3]byte{0, 1, 2}, 4000, nil},
	{"small shards, colliding keys", [3]byte{1, 1, 1}, 6000, nil},
	{"no eviction", [3]byte{2, 1, 0}, 6000, nil},
	{"wider row after the shards fill", [3]byte{1, 1, 0}, 4000, narrowUntil(2000)},
	{"several slabs, wider row late", [3]byte{3, 2, 0}, 40000, narrowUntil(30000)},
	{"zero-heavy wide rows", [3]byte{2, 2, 0}, 6000, wideOnly},
	{"zero-heavy wide rows, colliding keys", [3]byte{1, 1, 2}, 6000, wideOnly},
}

func TestCacheMatchesReference(t *testing.T) {
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runCacheOps(t, diffOps(seed, sc.header, sc.n, sc.pick))
			}
		})
	}
}

func FuzzCacheOps(f *testing.F) {
	for _, sc := range diffScenarios {
		f.Add(diffOps(1, sc.header, 64, sc.pick))
	}
	f.Fuzz(runCacheOps)
}
