// Package core implements the paper's contribution: the Lunule
// metadata load balancer. It comprises the Imbalance Factor model
// (Equations 1-3), the role-and-amount planner (Algorithm 1), the
// workload-aware pattern analyzer (alpha/beta locality factors and the
// migration index of Equation 4), and the three-path subtree selector.
package core

import (
	"repro/internal/stats"
)

// smoothness is the urgency term's logistic smoothness knob S, in
// (0, 1); the paper sets 0.2.
const smoothness = 0.2

// IFResult breaks the Imbalance Factor into its components.
type IFResult struct {
	// IF is the Imbalance Factor in [0, 1] (Equation 3).
	IF float64
	// CoV is the raw Coefficient of Variation of the loads (Eq. 1).
	CoV float64
	// NormCoV is CoV normalized by its sqrt(n) upper bound.
	NormCoV float64
	// U is the urgency term (Equation 2).
	U float64
	// Utilization is u = l_max / C.
	Utilization float64
}

// ComputeIF evaluates the Imbalance Factor model for the given per-MDS
// loads (ops/sec) and the theoretical single-MDS capacity C. A cluster
// with fewer than two MDSs, zero capacity, or zero load is perfectly
// balanced (IF 0).
func ComputeIF(loads []float64, capacity float64) IFResult {
	n := len(loads)
	if n < 2 || capacity <= 0 {
		return IFResult{}
	}
	cov := stats.CoV(loads)
	norm := cov / stats.MaxCoV(n)
	u := stats.Max(loads) / capacity
	if u > 1 {
		u = 1
	}
	urgency := stats.Logistic(u, smoothness)
	return IFResult{
		IF:          norm * urgency,
		CoV:         cov,
		NormCoV:     norm,
		U:           urgency,
		Utilization: u,
	}
}
