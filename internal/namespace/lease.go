package namespace

// LeaseTable is the engine's index of live read leases: for each
// leased subtree entry, the ranks currently allowed to serve its reads.
// It is the routing mirror of the replica manager's lease state — the
// manager owns grant/revoke/expiry truth, the cluster copies the holder
// sets in here whenever lease membership changes, and the engine's plan
// phase consults it right after authority resolution to divert read
// runs to a lease holder. Holder slices are stored sorted by rank, so
// candidate enumeration is deterministic.
//
// The table is single-writer: only the cluster's serial sections mutate
// it (epoch-close grants, barrier-applied write revokes, the pre-serve
// sync after crash/drain events), and the parallel plan phase only
// reads it.
type LeaseTable struct {
	holders map[FragKey][]MDSID
	version uint64
}

// NewLeaseTable builds an empty lease table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{holders: make(map[FragKey][]MDSID)}
}

// Len returns how many subtree entries currently carry leases. The
// engine hoists a Len() == 0 check so a run without leases pays nothing
// per op.
func (t *LeaseTable) Len() int { return len(t.holders) }

// Has reports whether the subtree entry has any live lease.
func (t *LeaseTable) Has(key FragKey) bool {
	_, ok := t.holders[key]
	return ok
}

// Holders returns the ranks holding leases on the entry, sorted by
// rank, or nil. Shared storage: callers must not modify the slice.
func (t *LeaseTable) Holders(key FragKey) []MDSID { return t.holders[key] }

// Set replaces the entry's holder set (which must be sorted by rank);
// an empty set removes the entry.
func (t *LeaseTable) Set(key FragKey, holders []MDSID) {
	if len(holders) == 0 {
		t.Remove(key)
		return
	}
	t.holders[key] = holders
	t.version++
}

// Remove drops the entry's holder set.
func (t *LeaseTable) Remove(key FragKey) {
	if _, ok := t.holders[key]; !ok {
		return
	}
	delete(t.holders, key)
	t.version++
}

// Clear drops every holder set.
func (t *LeaseTable) Clear() {
	if len(t.holders) == 0 {
		return
	}
	clear(t.holders)
	t.version++
}

// Version increments on every mutation, mirroring Partition.Version:
// consumers caching routing decisions invalidate on mismatch.
func (t *LeaseTable) Version() uint64 { return t.version }
