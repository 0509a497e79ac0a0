package fleet

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Consistent-hash ring with virtual nodes. Duplicate-affinity routing
// keys on the feature-vector hash: a repeat job hashes to the same point,
// the same arc, the same replica — whose LRU cache already holds the
// prediction. Virtual nodes (vnodesPerMember points per replica) keep the
// arc shares close to uniform, and consistency keeps remaps minimal: when
// a replica is ejected only *its* arcs move (to each arc's clockwise
// successor); every key owned by a surviving replica stays put.

// vnodesPerMember is the number of ring points per replica. 128 points
// bounds per-replica share skew to a few percent at small fleet sizes
// (see TestRingBalance).
const vnodesPerMember = 128

type ringPoint struct {
	hash   uint64
	member string
}

// Ring maps 64-bit keys to member names. It has no lock of its own: the
// router reads and mutates it only under its membership mutex, which is also
// what makes the slice Members returns safe to walk.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted; kept by Add and Remove so no reader sorts
}

// NewRing builds an empty ring.
func NewRing() *Ring { return &Ring{} }

// comparePoints orders the ring by hash, then by name: insertion order does
// not matter.
func comparePoints(a, b ringPoint) int {
	if a.hash != b.hash {
		return cmp.Compare(a.hash, b.hash)
	}
	return cmp.Compare(a.member, b.member)
}

// vnodeHash places virtual node i of a member on the ring: FNV-1a over the
// name, '#' and i's low two bytes, computed without allocating. Raw FNV-1a
// over short near-identical inputs clusters badly (adjacent vnode indices
// land near each other and arcs skew 10x), so the sum goes through a
// murmur3-style finalizer for full avalanche.
func vnodeHash(member string, i int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for k := 0; k < len(member); k++ {
		h = (h ^ uint64(member[k])) * prime
	}
	for _, c := range [3]byte{'#', byte(i), byte(i >> 8)} {
		h = (h ^ uint64(c)) * prime
	}
	return mix64(h)
}

// mix64 is the murmur3 64-bit finalizer: every input bit flips every
// output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's virtual nodes: it sorts only those and merges them
// in. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	at, ok := r.index(member)
	if ok {
		return
	}
	r.members = slices.Insert(r.members, at, member)
	var added [vnodesPerMember]ringPoint
	for i := range added {
		added[i] = ringPoint{hash: vnodeHash(member, i), member: member}
	}
	slices.SortFunc(added[:], comparePoints)
	// Merge from the back, so that no point is overwritten before it moves.
	i, j := len(r.points)-1, len(added)-1
	r.points = slices.Grow(r.points, len(added))[:len(r.points)+len(added)]
	for k := len(r.points) - 1; j >= 0; k-- {
		if i >= 0 && comparePoints(r.points[i], added[j]) > 0 {
			r.points[k], i = r.points[i], i-1
		} else {
			r.points[k], j = added[j], j-1
		}
	}
}

// Remove ejects a member's virtual nodes. Keys it owned fall to each
// arc's clockwise successor; all other ownership is untouched.
func (r *Ring) Remove(member string) {
	at, ok := r.index(member)
	if !ok {
		return
	}
	r.members = slices.Delete(r.members, at, at+1)
	r.points = slices.DeleteFunc(r.points, func(p ringPoint) bool { return p.member == member })
}

// Owner returns the member owning key: the first ring point at or
// clockwise after the key, wrapping at the top. Empty ring returns "".
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// index is member's position in Members, or where it would be inserted.
func (r *Ring) index(member string) (int, bool) { return slices.BinarySearch(r.members, member) }

// Has reports membership.
func (r *Ring) Has(member string) bool {
	_, ok := r.index(member)
	return ok
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Members returns the member names, sorted: the ring's own slice, which the
// caller must not modify and which the next Add or Remove invalidates.
func (r *Ring) Members() []string { return r.members }

// String renders a compact membership view for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members, %d points)", len(r.members), len(r.points))
}
