//go:build !race

// Steady-state allocation contracts for the hot resolution path. The
// assertions use testing.AllocsPerRun, which is meaningless under the
// race detector (the runtime inserts extra allocations), so this file
// is excluded from `make race`; `make alloc` runs it without -race.

package namespace

import "testing"

// TestGoverningEntryZeroAlloc covers the resolution every op takes:
// GoverningEntry for an existing target and GoverningChildEntry for a
// create of a name its parent does not hold yet.
func TestGoverningEntryZeroAlloc(t *testing.T) {
	_, p, leaf := benchPartition(t)
	if n := testing.AllocsPerRun(100, func() { p.GoverningEntry(leaf) }); n != 0 {
		t.Fatalf("GoverningEntry allocates %.1f per call, want 0", n)
	}
	h := HashName("new")
	if n := testing.AllocsPerRun(100, func() { p.GoverningChildEntry(leaf.Parent, h) }); n != 0 {
		t.Fatalf("GoverningChildEntry allocates %.1f per call, want 0", n)
	}
}

func TestResolveChainIntoZeroAlloc(t *testing.T) {
	_, p, leaf := benchPartition(t)
	buf := make([]MDSID, 0, 8)
	buf, _ = p.ResolveChainInto(buf, leaf) // size the buffer
	buf = buf[:0]
	if n := testing.AllocsPerRun(100, func() {
		chain, _ := p.ResolveChainInto(buf, leaf)
		buf = chain[:0]
	}); n != 0 {
		t.Fatalf("ResolveChainInto allocates %.1f per call with a warm buffer, want 0", n)
	}
}
