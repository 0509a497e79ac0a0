package fleet

// The routing rule. A row group goes to the consistent-hash owner of its
// feature hash, the replica whose duplicate cache already holds the group's
// repeats (the paper's Sec. VI finding: most jobs repeat a known
// configuration). Load decides only when the owner is not a candidate —
// it faulted on this group, or the ring has no owner — and then the
// least-loaded untried member takes the group, ties going to the smaller
// name so failover is deterministic.

// candidate is one untried ring member as pickReplica sees it.
type candidate struct {
	name string
	// load is the replica's inflight estimate (router-tracked dispatches
	// plus the last polled gate inflight).
	load int64
}

// pickReplica returns the index of the candidate a row group goes to: the
// owner when it is among cands, otherwise the one with the least load, ties
// broken by name ascending; -1 when cands is empty.
func pickReplica(cands []candidate, owner string) int {
	best := -1
	for i, c := range cands {
		if c.name == owner {
			return i
		}
		if best < 0 || c.load < cands[best].load || (c.load == cands[best].load && c.name < cands[best].name) {
			best = i
		}
	}
	return best
}
