// Package mantle implements a Mantle-style programmable balancing
// framework (Sevilla et al., SC '15) on top of the simulator. The
// paper's GreedySpill baseline is, in the original evaluation, a Lua
// policy injected through Mantle; here policies are Go closures with
// the same three-phase structure:
//
//	when(env)            -> should this MDS migrate now?
//	howMuch(env)         -> how much load should it shed?
//	where(env, amount)   -> how is that amount spread over the peers?
//
// The framework adapts any such policy to the cluster's Balancer
// interface, using the stock heat-ranked subtree selection to realize
// the chosen amounts — exactly the division of labour Mantle has in
// CephFS, and the reason the Lunule paper argues Mantle's API is not
// enough: the subtree-selection step stays fixed.
package mantle

import (
	"repro/internal/balancer"
	"repro/internal/namespace"
)

// Env is the metric environment a policy callback sees, patterned
// after Mantle's Lua environment: the evaluating MDS's rank, current
// per-MDS loads, short load histories, and cluster constants.
type Env struct {
	// WhoAmI is the rank of the MDS evaluating the policy.
	WhoAmI int
	// Loads holds each MDS's last-epoch load (ops/sec).
	Loads []float64
	// History holds each MDS's recent per-epoch loads (oldest first).
	History [][]float64
	// Total is the cluster-wide load.
	Total float64
	// Capacity is the single-MDS capacity C.
	Capacity float64
	// Epoch is the balancing round number.
	Epoch int64
}

// MyLoad returns the evaluating MDS's load.
func (e Env) MyLoad() float64 {
	if e.WhoAmI < 0 || e.WhoAmI >= len(e.Loads) {
		return 0
	}
	return e.Loads[e.WhoAmI]
}

// Mean returns the cluster's average load.
func (e Env) Mean() float64 {
	if len(e.Loads) == 0 {
		return 0
	}
	return e.Total / float64(len(e.Loads))
}

// Policy is a Mantle-style three-callback balancing policy.
type Policy struct {
	// PolicyName labels the policy in experiment output.
	PolicyName string
	// When decides whether the evaluating MDS migrates this epoch.
	When func(Env) bool
	// HowMuch returns the amount of load (ops/sec) to shed.
	HowMuch func(Env) float64
	// Where spreads the amount over the cluster: the returned slice
	// holds the load directed at each rank (the evaluator's own slot
	// is ignored). A nil return cancels the migration.
	Where func(Env, float64) []float64
}

// Balancer adapts a Policy to balancer.Balancer.
type Balancer struct {
	policy Policy
}

// candidateLimit bounds subtree candidate enumeration.
const candidateLimit = 64

// NewBalancer wraps the policy. Policies with missing callbacks are
// treated conservatively (no migration).
func NewBalancer(p Policy) *Balancer {
	return &Balancer{policy: p}
}

// Name implements balancer.Balancer.
func (b *Balancer) Name() string {
	if b.policy.PolicyName != "" {
		return "Mantle:" + b.policy.PolicyName
	}
	return "Mantle"
}

// Rebalance implements balancer.Balancer: it evaluates the policy on
// every MDS (as Mantle does decentralized) and converts each verdict
// into heat-selected subtree exports.
func (b *Balancer) Rebalance(v balancer.View) {
	n := v.NumMDS()
	v.Ledger().EpochVanilla(n) // Mantle rides the stock heartbeat exchange
	if b.policy.When == nil || b.policy.HowMuch == nil || b.policy.Where == nil {
		return
	}
	loads := balancer.Loads(v)
	histories := balancer.LoadHistories(v)
	total := 0.0
	for _, l := range loads {
		total += l
	}
	for i := 0; i < n; i++ {
		env := Env{
			WhoAmI:   i,
			Loads:    loads,
			History:  histories,
			Total:    total,
			Capacity: v.Capacity(),
			Epoch:    v.Epoch(),
		}
		if !b.policy.When(env) {
			continue
		}
		amount := b.policy.HowMuch(env)
		if amount <= 0 || loads[i] <= 0 {
			continue
		}
		targets := b.policy.Where(env, amount)
		if targets == nil {
			continue
		}
		b.export(v, namespace.MDSID(i), loads[i], targets)
	}
}

// export realizes one exporter's target vector with heat-ranked
// subtree selection, splitting the picks across the targets
// proportionally to their requested shares.
func (b *Balancer) export(v balancer.View, ex namespace.MDSID, load float64, targets []float64) {
	want := 0.0
	for j, t := range targets {
		if j == int(ex) || t <= 0 {
			continue
		}
		want += t
	}
	if want <= 0 {
		return
	}
	fraction := want / load
	picked := balancer.HeatSelect(v, ex, fraction, candidateLimit)
	if len(picked) == 0 {
		return
	}
	// Assign picks round-robin over the positive targets, weighted by
	// repeating each target in proportion to its share.
	var order []namespace.MDSID
	for j, t := range targets {
		if j == int(ex) || t <= 0 {
			continue
		}
		reps := int(t/want*float64(len(picked)) + 0.5)
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			order = append(order, namespace.MDSID(j))
		}
	}
	if len(order) == 0 {
		return
	}
	for k, c := range picked {
		balancer.SubmitCandidate(v, c, ex, order[k%len(order)])
	}
}
