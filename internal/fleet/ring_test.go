package fleet

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"iotaxo/internal/rng"
)

// syntheticHashes returns n deterministic 64-bit keys standing in for
// feature-vector hashes.
func syntheticHashes(n int, seed uint64) []uint64 {
	r := rng.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	return keys
}

// scratchPoints is the ring of members as it was first built: every point
// hashed through hash/fnv, then the whole ring sorted by (hash, member).
func scratchPoints(members []string) []ringPoint {
	var points []ringPoint
	for _, m := range members {
		for i := 0; i < vnodesPerMember; i++ {
			h := fnv.New64a()
			h.Write([]byte(m))
			h.Write([]byte{'#', byte(i), byte(i >> 8)})
			points = append(points, ringPoint{hash: mix64(h.Sum64()), member: m})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].member < points[b].member
	})
	return points
}

func ringOf(members ...string) *Ring {
	r := NewRing()
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// TestRingBalance: with 128 vnodes per member, 1k synthetic feature
// hashes spread across the fleet within a 2x-of-fair-share bound per
// replica. Routing keeps that skew: a row goes to its owner whatever the
// load.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("replica-%d", i)
		}
		ring := ringOf(members...)
		keys := syntheticHashes(1000, 42)
		counts := make(map[string]int)
		for _, k := range keys {
			counts[ring.Owner(k)] = counts[ring.Owner(k)] + 1
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members own keys: %v", n, len(counts), counts)
		}
		fair := float64(len(keys)) / float64(n)
		for m, c := range counts {
			if float64(c) < fair/2 || float64(c) > fair*2 {
				t.Errorf("n=%d: %s owns %d keys, outside [%.0f, %.0f] of fair %.0f: %v",
					n, m, c, fair/2, fair*2, fair, counts)
			}
		}
	}
}

// TestRingMinimalRemap: removing one member moves only that member's
// keys; re-adding it restores the original assignment exactly.
func TestRingMinimalRemap(t *testing.T) {
	ring := ringOf("a", "b", "c", "d")
	keys := syntheticHashes(1000, 7)
	before := make(map[uint64]string, len(keys))
	for _, k := range keys {
		before[k] = ring.Owner(k)
	}

	ring.Remove("b")
	moved := 0
	for _, k := range keys {
		now := ring.Owner(k)
		if now == "b" {
			t.Fatalf("key %x still owned by removed member", k)
		}
		if before[k] == "b" {
			moved++
			continue
		}
		if now != before[k] {
			t.Fatalf("key %x moved %s -> %s though its owner survived", k, before[k], now)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; balance is broken")
	}

	ring.Add("b")
	for _, k := range keys {
		if got := ring.Owner(k); got != before[k] {
			t.Fatalf("after re-add, key %x owned by %s, originally %s", k, got, before[k])
		}
	}
}

// TestRingOrderIndependence: ownership depends only on the member set,
// not insertion order — a rejoining replica reclaims exactly its arcs.
func TestRingOrderIndependence(t *testing.T) {
	r1 := ringOf("a", "b", "c")
	r2 := ringOf("c", "a", "b")
	for _, k := range syntheticHashes(500, 3) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("key %x: %s vs %s across insertion orders", k, r1.Owner(k), r2.Owner(k))
		}
	}
}

// TestRingAddAllocatesNothing: vnodeHash allocates nothing for a name of
// any length, and an Add into a ring with room for its points allocates
// nothing either. The ring is rebuilt under the router's membership lock.
func TestRingAddAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	name := "https://replica-with-a-rather-long-name.fleet.example.internal:8443"
	if n := testing.AllocsPerRun(100, func() { vnodeHash(name, 7) }); n != 0 {
		t.Errorf("vnodeHash allocates %v objects", n)
	}
	ring := ringOf("r0", "r1", "r2")
	if n := testing.AllocsPerRun(20, func() { ring.Add(name); ring.Remove(name) }); n != 0 {
		t.Errorf("Add and Remove allocate %v objects", n)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	ring := NewRing()
	if got := ring.Owner(123); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	ring.Add("solo")
	for _, k := range syntheticHashes(50, 9) {
		if got := ring.Owner(k); got != "solo" {
			t.Fatalf("single-member ring routed %x to %q", k, got)
		}
	}
	// Idempotent add must not duplicate points.
	ring.Add("solo")
	if len(ring.points) != vnodesPerMember {
		t.Fatalf("double add grew the ring to %d points", len(ring.points))
	}
	ring.Remove("ghost") // absent removal is a no-op
	if ring.Size() != 1 {
		t.Fatalf("ghost removal changed membership: %d", ring.Size())
	}
}

// FuzzRing drives random membership churn from the fuzz input and checks
// the ring's two core invariants after every operation: ownership depends
// only on the current member set (order independence), and removing a
// member remaps only that member's keys. After every operation the points
// are also exactly, in order, those of the ring sorted from scratch.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0x09, 0x0a, 0x0b, 0x01})
	f.Add([]byte{0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x02, 0x05})
	f.Add([]byte{0xff, 0x00, 0x08, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		names := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
		ring := NewRing()
		live := make(map[string]bool)
		keys := syntheticHashes(200, 17)
		for _, b := range data {
			name := names[int(b&0x07)]
			prev := make(map[uint64]string, len(keys))
			for _, k := range keys {
				prev[k] = ring.Owner(k)
			}
			if b&0x08 != 0 {
				ring.Add(name)
				live[name] = true
				// An add moves keys only *to* the new member.
				for _, k := range keys {
					now := ring.Owner(k)
					if now != prev[k] && now != name {
						t.Fatalf("add(%s) moved key %x from %s to %s", name, k, prev[k], now)
					}
				}
			} else {
				ring.Remove(name)
				delete(live, name)
				// A remove moves keys only *from* the removed member.
				for _, k := range keys {
					now := ring.Owner(k)
					if prev[k] != name && now != prev[k] {
						t.Fatalf("remove(%s) moved key %x from %s to %s", name, k, prev[k], now)
					}
					if now == name {
						t.Fatalf("remove(%s) left it owning key %x", name, k)
					}
				}
			}
			if ring.Size() != len(live) {
				t.Fatalf("size %d, want %d", ring.Size(), len(live))
			}
			if want := scratchPoints(ring.Members()); !slices.Equal(ring.points, want) {
				t.Fatalf("after %x the ring's %d points differ from the %d of a ring sorted from scratch", b, len(ring.points), len(want))
			}
		}
		// Order independence: a fresh ring built from the surviving set
		// (sorted insertion) owns every key identically.
		rebuilt := NewRing()
		sorted := make([]string, 0, len(live))
		for n := range live {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			rebuilt.Add(n)
		}
		for _, k := range keys {
			if ring.Owner(k) != rebuilt.Owner(k) {
				t.Fatalf("churned ring owns %x via %s, rebuilt via %s", k, ring.Owner(k), rebuilt.Owner(k))
			}
		}
	})
}
