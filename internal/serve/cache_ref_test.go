package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// A reference model of the cache's policy, kept as the oracle that
// runCacheOps, at the bottom of this file, drives the live Cache against:
// same hit/miss sequence, same values, same eviction order, same drop
// counts. It shares nothing with cache.go but the shard count and the key:
// each shard is a map from key to entry and two slices of entries in
// recency order, with a heap-copied row and the bundle pointer per entry.
//
// The policy is a segmented LRU. A stored entry goes on probation; its first
// hit moves it to protected, which holds at most perShard - max(1,
// perShard/8) entries, and a hit that overfills protected moves protected's
// least recently used entry to the most recent end of probation. A new entry
// evicts the least recently used probation entry once probation holds its
// bound. The bound starts at max(1, perShard/64). The key of every entry
// probation evicts is written to ghost word key/16 mod max(1, perShard/32) of
// its shard, and a new entry whose key is in its word empties the word and
// widens the bound by max(1, perShard/32), up to max(1, perShard/8), before
// anything is evicted for it. A refreshed entry stays on its list.

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
	hot bool // on protected
}

// refGhost is one word of a shard's ghost table: the key probation last
// evicted into it, if set.
type refGhost struct {
	key uint64
	set bool
}

// refShard is an independently locked segmented LRU.
type refShard struct {
	mu sync.Mutex
	// bound is probation's, which a returning key widens by step up to
	// widest; protected holds at most cap - widest.
	cap, bound, step, widest int
	// promote moves an entry to protected on its first hit; without it, and
	// with bound = widest = cap, the shard is one plain LRU list.
	promote bool
	items   map[uint64]*refEntry
	// probation and protected are ordered least recently used first.
	probation, protected []*refEntry
	ghosts               []refGhost
}

// refPolicy picks how a refCache bounds probation.
type refPolicy int

const (
	refAdaptive  refPolicy = iota // the Cache's: narrow at first, widened by keys that come back
	refSegmented                  // probation at its widest from the start
	refPlainLRU                   // one LRU list a shard
)

// refCache is a sharded segmented LRU keyed by HashKey.
type refCache struct {
	shards [cacheShards]refShard
}

// newRefCache builds a cache holding at most capacity entries (rounded up to a
// multiple of the shard count) under policy. Returns nil for capacity <= 0,
// and a nil *refCache is safe to use — it never hits.
func newRefCache(capacity int, policy refPolicy) *refCache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &refCache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap, s.promote = perShard, true
		s.bound, s.step, s.widest = max(1, perShard/64), max(1, perShard/32), max(1, perShard/8)
		switch policy {
		case refSegmented:
			s.bound = s.widest
		case refPlainLRU:
			s.bound, s.widest, s.promote = perShard, perShard, false
		}
		s.items = make(map[uint64]*refEntry, perShard)
		s.ghosts = make([]refGhost, max(1, perShard/32))
	}
	return c
}

func (c *refCache) shard(key uint64) *refShard {
	return &c.shards[key&(cacheShards-1)]
}

// sameRow reports whether a and b hold the same values bit for bit.
func sameRow(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// list returns the slice e is on.
func (s *refShard) list(e *refEntry) *[]*refEntry {
	if e.hot {
		return &s.protected
	}
	return &s.probation
}

// ghost returns key's word in the shard's ghost table.
func (s *refShard) ghost(key uint64) *refGhost {
	return &s.ghosts[key/cacheShards%uint64(len(s.ghosts))]
}

// remove takes e off its list.
func (s *refShard) remove(e *refEntry) {
	l := s.list(e)
	i := slices.Index(*l, e)
	*l = slices.Delete(*l, i, i+1)
}

// Get returns the cached result for (key, row) under bundle mv and makes it
// the most recently used protected entry. Entries produced by a different
// bundle pointer (a since-replaced version) never hit.
func (c *refCache) Get(key uint64, row []float64, mv *ModelVersion) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok || e.mv != mv || !sameRow(e.row, row) {
		return Result{}, false
	}
	s.remove(e)
	e.hot = e.hot || s.promote
	l := s.list(e)
	*l = append(*l, e)
	if len(s.protected) > s.cap-s.widest {
		old := s.protected[0]
		s.protected = s.protected[1:]
		old.hot = false
		s.probation = append(s.probation, old)
	}
	return e.res, true
}

// Put inserts a result on probation or refreshes one on the list it is on.
func (c *refCache) Put(key uint64, row []float64, mv *ModelVersion, res Result) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if ok {
		s.remove(e)
		// Replace the row as well: on a hash collision the resident entry
		// may describe a different feature vector, and a refreshed result
		// must stay paired with the row that produced it.
		e.row = append(e.row[:0], row...)
	} else {
		if g := s.ghost(key); g.set && g.key == key {
			*g = refGhost{}
			s.bound = min(s.bound+s.step, s.widest)
		}
		if len(s.probation) >= s.bound {
			old := s.probation[0]
			delete(s.items, old.key)
			s.probation = slices.Delete(s.probation, 0, 1)
			*s.ghost(old.key) = refGhost{old.key, true}
		}
		if len(s.probation)+len(s.protected) >= s.cap {
			panic("a full shard with room on probation")
		}
		e = &refEntry{key: key, row: append([]float64(nil), row...)}
		s.items[key] = e
	}
	e.mv, e.res = mv, res
	l := s.list(e)
	*l = append(*l, e)
}

// InvalidateSystem drops every resident entry belonging to a system,
// returning the number removed.
func (c *refCache) InvalidateSystem(system string) int {
	if c == nil {
		return 0
	}
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, l := range []*[]*refEntry{&s.probation, &s.protected} {
			*l = slices.DeleteFunc(*l, func(e *refEntry) bool {
				if e.mv.System != system {
					return false
				}
				delete(s.items, e.key)
				dropped++
				return true
			})
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
		n += len(s.probation) + len(s.protected)
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
	diffCapacity  = [...]int{cacheShards, 3 * cacheShards, 40 * cacheShards, 300 * cacheShards, 16 * cacheShards}
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
	c, ref := NewCache(capacity), newRefCache(capacity, refAdaptive)

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
			res := Result{PredLog: float64(step)}
			if step%5 != 0 {
				ood := step&1 != 0
				res.Guard = Guard{EU: float64(step) / 8, AU: float64(n) / 4, OoD: ood, set: true}
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
	{"two probation slots a shard", [3]byte{4, 1, 0}, 6000, nil},
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

// The trade the segmented policy makes, against a plain LRU of the same
// capacity, on four seeded streams of the default capacity C. Each row is
// looked up and, on a miss, stored, as Service.Predict does. The live Cache
// runs the adaptive policy, and its hit count must equal the reference
// model's; the plain LRU is the reference model with one list a shard, and
// the table's middle column the model with probation fixed at its widest.
//   - http-dup: 80 % of rows replayed from a 4 096-row hot set, the rest
//     new, the shape of the ledger's http-dup workload;
//   - flood: three rounds of the hot set read twice, then 2C new rows;
//   - shift: 3C/2 rows that each come back at once, then the http-dup shape
//     on a new hot set. The rows that hit first fill protected, and must
//     leave it through probation for the new hot set to be kept;
//   - far reuse: every row comes back once, after C/8 to C new rows. This
//     is the stream the segmented policy loses: a row's first repeat comes
//     after probation has evicted it, and after the ghost table has too.
func TestHitRatioAgainstPlainLRU(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, 3.3 million lookups: race instrumentation makes it 40 s and can find nothing")
	}
	const capacity, hot = 1 << 16, 4096
	rng := rand.New(rand.NewPCG(48, 8))
	next := hot // the next new row
	fresh := func() int { next++; return next - 1 }
	var streams [4][]int
	dup := func(stream []int, from int) []int {
		for range 2 * capacity {
			if rng.Float64() < 0.8 {
				stream = append(stream, from+rng.IntN(hot))
			} else {
				stream = append(stream, fresh())
			}
		}
		return stream
	}
	streams[0] = dup(nil, 0)
	for range 3 {
		for range 2 {
			for _, n := range rng.Perm(hot) {
				streams[1] = append(streams[1], n)
			}
		}
		for range 2 * capacity {
			streams[1] = append(streams[1], fresh())
		}
	}
	for range 3 * capacity / 2 {
		n := fresh()
		streams[2] = append(streams[2], n, n)
	}
	next += hot
	streams[2] = dup(streams[2], next-hot)
	repeats := map[int][]int{} // new-row count -> rows that come back then
	for k := 0; k < 2*capacity; k++ {
		n := fresh()
		streams[3] = append(streams[3], n)
		gap := capacity/8 + rng.IntN(capacity-capacity/8)
		repeats[k+gap] = append(repeats[k+gap], n)
		streams[3] = append(streams[3], repeats[k]...)
		delete(repeats, k)
	}

	mv := cacheBundleA
	type store interface {
		Get(uint64, []float64, *ModelVersion) (Result, bool)
		Put(uint64, []float64, *ModelVersion, Result)
	}
	ratio := func(c store, stream []int) float64 {
		hits := 0
		row := make([]float64, 2)
		for _, n := range stream {
			row[0], row[1] = float64(n), 1
			key := HashKey(mv.System, mv.Version, row)
			if _, ok := c.Get(key, row, mv); ok {
				hits++
			} else {
				c.Put(key, row, mv, Result{PredLog: float64(n)})
			}
		}
		return float64(hits) / float64(len(stream))
	}
	names := [...]string{"http-dup", "flood", "shift", "far reuse"}
	var lru, seg [len(streams)]float64
	table := fmt.Sprintf("hit ratio at capacity %d\n%-10s %7s %9s %9s %9s\n", capacity, "stream", "rows", "plain LRU", "fixed 1/8", "adaptive")
	for i, stream := range streams {
		lru[i] = ratio(newRefCache(capacity, refPlainLRU), stream)
		fixed := ratio(newRefCache(capacity, refSegmented), stream)
		c := NewCache(capacity)
		seg[i] = ratio(newRefCache(capacity, refAdaptive), stream)
		if live := ratio(c, stream); live != seg[i] {
			t.Errorf("%s: the Cache hits %.6f of rows, its reference model %.6f", names[i], live, seg[i])
		}
		table += fmt.Sprintf("%-10s %7d %9.4f %9.4f %9.4f  %5d rows resident\n", names[i], len(stream), lru[i], fixed, seg[i], c.Len())
	}
	t.Log(table)
	if math.Abs(seg[0]-lru[0]) > 0.005 {
		t.Errorf("http-dup: the segmented policy hits %.4f of rows, a plain LRU %.4f", seg[0], lru[0])
	}
	if seg[1] <= lru[1] {
		t.Errorf("flood: the segmented policy hits %.4f of rows, no more than a plain LRU's %.4f", seg[1], lru[1])
	}
	if seg[2] < lru[2]-0.005 {
		t.Errorf("shift: the segmented policy hits %.4f of rows, a plain LRU %.4f", seg[2], lru[2])
	}
	if seg[3] >= lru[3] {
		t.Errorf("far reuse: the segmented policy hits %.4f of rows, no fewer than a plain LRU's %.4f", seg[3], lru[3])
	}
}
