package balancer

import (
	"repro/internal/namespace"
	"repro/internal/obs"
)

// GreedySpill is the GIGA+-derived policy the paper runs through the
// Mantle framework: whenever an MDS has load and its neighbour (next
// rank, wrapping) has none, it spills half of its load to that
// neighbour. It uses only local information — no global view, no
// urgency — which is why the paper measures it as the worst balancer
// (IF close to 1 on most workloads).
type GreedySpill struct {
	bus *obs.Bus
}

// GreedySpill's fixed knobs, the Mantle defaults.
const (
	// spillIdleThreshold is the load at or below which the neighbour
	// counts as idle (ops/sec).
	spillIdleThreshold = 1
	// spillCandidateLimit bounds candidate enumeration.
	spillCandidateLimit = 64
)

// NewGreedySpill returns the policy.
func NewGreedySpill() *GreedySpill { return &GreedySpill{} }

// Name implements Balancer.
func (b *GreedySpill) Name() string { return "GreedySpill" }

// SetBus implements obs.BusCarrier.
func (b *GreedySpill) SetBus(bus *obs.Bus) { b.bus = bus }

// Rebalance implements Balancer.
func (b *GreedySpill) Rebalance(v View) {
	n := v.NumMDS()
	v.Ledger().EpochVanilla(n) // Mantle runs inside the stock heartbeat exchange

	loads := Loads(v)
	for i := 0; i < n; i++ {
		ex := namespace.MDSID(i)
		if !v.Importable(ex) {
			// Down or draining: the drain pump owns a draining rank's
			// exports; GreedySpill stays out of its way.
			continue
		}
		// The neighbour is the next importable rank (wrapping):
		// spilling to a crashed or draining neighbour would strand the
		// subtree on a rank that is leaving.
		neighbour := ex
		for step := 1; step < n; step++ {
			cand := namespace.MDSID((i + step) % n)
			if v.Importable(cand) {
				neighbour = cand
				break
			}
		}
		if neighbour == ex {
			continue
		}
		if loads[i] <= spillIdleThreshold || loads[neighbour] > spillIdleThreshold {
			continue
		}
		if b.bus.Enabled(obs.EvTrigger) {
			b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvTrigger, Fields: obs.F{
				"balancer": b.Name(), "from": i, "to": int(neighbour),
				"load": loads[i], "fired": true,
			}})
		}
		// Ship half of my load to the idle neighbour.
		for _, c := range HeatSelect(v, ex, 0.5, spillCandidateLimit) {
			SubmitCandidate(v, c, ex, neighbour)
		}
	}
}
