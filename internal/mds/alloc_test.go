//go:build !race

// Steady-state allocation contract for the serve path: once the trace
// window counters and the heat cells on the inode's ancestor walk
// exist, serving further accesses to it must not allocate. AllocsPerRun
// is meaningless under the race detector, so this file is excluded from
// `make race`; `make alloc` runs it without -race.

package mds

import "testing"

func TestServeZeroAllocSteadyState(t *testing.T) {
	s, e, in := benchServer(t)
	s.Serve(e, in, 0) // materialize counters and heat cells
	if n := testing.AllocsPerRun(100, func() { s.Serve(e, in, 0) }); n != 0 {
		t.Fatalf("Serve allocates %.1f per op in the steady state, want 0", n)
	}
}

func TestAddHeatZeroAllocSteadyState(t *testing.T) {
	s, e, in := benchServer(t)
	s.addHeat(e.Key, in, false)
	if n := testing.AllocsPerRun(100, func() { s.addHeat(e.Key, in, false) }); n != 0 {
		t.Fatalf("addHeat allocates %.1f per op in the steady state, want 0", n)
	}
}
