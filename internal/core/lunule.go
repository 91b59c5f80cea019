package core

import (
	"repro/internal/balancer"
	"repro/internal/namespace"
	"repro/internal/obs"
)

// threshold is the IF value above which re-balance triggers (the
// paper's 0.1).
const threshold = 0.10

// Config selects the Lunule variant. The paper's parameters (IF
// threshold, smoothness S, the planner's L and history depth, the
// analyzer's N windows and sibling probability, the selector's
// tolerance) are the package's constants.
type Config struct {
	// WorkloadAware toggles the workload-aware subtree selection; with
	// it off the policy is the paper's Lunule-Light variant, which
	// keeps the IF model and Algorithm 1 but selects subtrees by the
	// default heat ranking.
	WorkloadAware bool

	// Ablation switches (all false in the paper's system). They exist
	// so the contribution of each design choice can be measured:
	//
	// DisableUrgency replaces Equation 2's logistic with U = 1, so the
	// trigger fires on any dispersion regardless of absolute load (no
	// benign-imbalance tolerance).
	DisableUrgency bool
	// DisableSiblingCredit removes the sibling-correlation term from
	// l_s, so unvisited subtrees carry no anticipated load.
	DisableSiblingCredit bool
	// DisableImporterGate drops Algorithm 1's future-load (fld) test:
	// every below-average MDS imports its full gap.
	DisableImporterGate bool
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{WorkloadAware: true}
}

// Lunule is the paper's balancer: IF-model-driven triggering,
// Algorithm 1 role/amount planning, and workload-aware subtree
// selection.
type Lunule struct {
	cfg Config
	bus *obs.Bus

	// lastResult is the most recent IF evaluation, exposed for
	// experiments and debugging.
	lastResult IFResult
	// rebalances counts how many epochs actually triggered migration.
	rebalances int
}

// New creates a Lunule balancer of the variant cfg selects.
func New(cfg Config) *Lunule {
	return &Lunule{cfg: cfg}
}

// SetBus implements obs.BusCarrier: trigger decisions (with their
// IF/U/CoV inputs), plan pairs, and subtree picks are traced through
// the given bus.
func (b *Lunule) SetBus(bus *obs.Bus) { b.bus = bus }

// NewDefault creates Lunule with the paper's defaults.
func NewDefault() *Lunule {
	cfg := DefaultConfig()
	return New(cfg)
}

// NewLight creates the Lunule-Light variant (workload-aware selection
// off).
func NewLight() *Lunule {
	cfg := DefaultConfig()
	cfg.WorkloadAware = false
	return New(cfg)
}

// Name implements balancer.Balancer.
func (b *Lunule) Name() string {
	if b.cfg.WorkloadAware {
		return "Lunule"
	}
	return "Lunule-Light"
}

// LastIF returns the most recent IF evaluation.
func (b *Lunule) LastIF() IFResult { return b.lastResult }

// Rebalances returns how many epochs triggered migration so far.
func (b *Lunule) Rebalances() int { return b.rebalances }

// housekeep tidies the partition once per epoch, as the CephFS MDS
// does between balancing rounds: fragment entries whose sibling half
// ended up on the same MDS merge back into their parent fragment, and
// whole-subtree entries whose enclosing subtree has the same authority
// are absorbed. Fewer entries mean shorter authority chains and less
// client-cache pressure; migrations in flight are left alone.
func (b *Lunule) housekeep(v balancer.View) {
	part := v.Partition()
	mig := v.Migrator()
	rootKey := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}
	// Entries serving (or about to serve) read leases are deliberate
	// carve-outs owned by the lease controller; absorbing one back into
	// its parent would tear down its replication group each epoch.
	lv, _ := v.(balancer.LeaseView)
	// Entries hot from an admission-throttled tenant are likewise left
	// alone: merging or absorbing one would blend its heat into a
	// larger entry and erase the per-tenant attribution the fairness
	// skip (balancer.TenantView) keys on.
	tv, _ := v.(balancer.TenantView)
	for _, e := range part.Entries() {
		if e.Key == rootKey || mig.IsFrozen(e.Key) || mig.PendingFor(e.Auth)[e.Key] {
			continue
		}
		if lv != nil && lv.ReadLeased(e.Key) {
			continue
		}
		if tv != nil && tv.TenantThrottled(e.Key) {
			continue
		}
		if !v.Up(e.Auth) {
			// Orphaned entry awaiting failover takeover: leave it for
			// the recovery policy, do not merge/absorb around it.
			continue
		}
		if e.Key.Frag.IsWhole() {
			if enc, ok := part.EnclosingAuth(e.Key); ok && enc == e.Auth {
				part.Absorb(e.Key)
			}
			continue
		}
		sibKey := namespace.FragKey{Dir: e.Key.Dir, Frag: e.Key.Frag.Sibling()}
		if mig.IsFrozen(sibKey) {
			continue
		}
		if sib, ok := part.EntryAt(sibKey); ok && sib.Auth == e.Auth && !mig.PendingFor(sib.Auth)[sibKey] {
			part.MergeWithSibling(e.Key)
		}
	}
}

// Rebalance implements balancer.Balancer.
func (b *Lunule) Rebalance(v balancer.View) {
	b.housekeep(v)
	n := v.NumMDS()
	// The plan runs over importable ranks only: a down rank neither
	// reports an Imbalance State nor may be chosen as an endpoint, and
	// a draining rank is already being emptied by the elastic drain
	// pump — planning around it would re-import into a rank that is
	// leaving. The compact participant-index arrays are mapped back to
	// real ranks afterwards.
	live := balancer.ImportableRanks(v)
	if len(live) < 2 {
		v.Ledger().EpochLunule(n, 0, nil, 0)
		return
	}
	allLoads := balancer.Loads(v)
	allHistories := balancer.LoadHistories(v)
	loads := make([]float64, len(live))
	histories := make([][]float64, len(live))
	for i, id := range live {
		loads[i] = allLoads[id]
		histories[i] = allHistories[id]
	}
	b.lastResult = ComputeIF(loads, v.Capacity())
	if b.cfg.DisableUrgency {
		// Ablation: raw normalized CoV, no benign-imbalance tolerance.
		b.lastResult.U = 1
		b.lastResult.IF = b.lastResult.NormCoV
	}
	fired := b.lastResult.IF >= threshold
	if b.bus.Enabled(obs.EvTrigger) {
		b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvTrigger, Fields: obs.F{
			"balancer": b.Name(), "if": b.lastResult.IF, "cov": b.lastResult.CoV,
			"norm_cov": b.lastResult.NormCoV, "u": b.lastResult.U,
			"threshold": threshold, "fired": fired, "live": len(live),
		}})
	}

	if !fired {
		// Benign (or no) imbalance: report stats, do nothing.
		v.Ledger().EpochLunule(n, 0, nil, 0)
		return
	}

	// Algorithm 1's per-epoch export/import ceiling is one MDS's
	// capacity C.
	plan := Plan(loads, histories, PlannerConfig{
		Cap:               v.Capacity(),
		DisableFutureLoad: b.cfg.DisableImporterGate,
	})
	if len(plan) == 0 {
		v.Ledger().EpochLunule(n, 0, nil, 0)
		return
	}
	for i := range plan {
		plan[i].From = live[plan[i].From]
		plan[i].To = live[plan[i].To]
	}
	b.rebalances++
	if b.bus.Enabled(obs.EvPlan) {
		for _, d := range plan {
			b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvPlan, Fields: obs.F{
				"from": int(d.From), "to": int(d.To), "amount": d.Amount,
			}})
		}
	}

	// Group decisions per exporter for the decision messages.
	perExporter := make(map[namespace.MDSID][]Decision)
	var exporterOrder []namespace.MDSID
	for _, d := range plan {
		if _, seen := perExporter[d.From]; !seen {
			exporterOrder = append(exporterOrder, d.From)
		}
		perExporter[d.From] = append(perExporter[d.From], d)
	}
	exporterRanks := make([]int, len(exporterOrder))
	maxPairs := 0
	for i, ex := range exporterOrder {
		exporterRanks[i] = int(ex)
		if len(perExporter[ex]) > maxPairs {
			maxPairs = len(perExporter[ex])
		}
	}
	v.Ledger().EpochLunule(n, 0, exporterRanks, maxPairs)

	an := NewAnalyzer(v.EpochTicks())
	if b.cfg.DisableSiblingCredit {
		an.SiblingProb = 0
	}
	for _, ex := range exporterOrder {
		for _, d := range perExporter[ex] {
			b.execute(v, an, d)
		}
	}
}

func (b *Lunule) execute(v balancer.View, an *Analyzer, d Decision) {
	if b.cfg.WorkloadAware {
		for _, c := range Select(v, an, d.From, d.Amount) {
			b.tracePick(v, c, d)
			balancer.SubmitCandidate(v, c, d.From, d.To)
		}
		return
	}
	// Lunule-Light: default (heat-ranked) subtree selection, still
	// bounded by the planned amount relative to the exporter's load.
	load := v.Server(d.From).CurrentLoad()
	if load <= 0 {
		return
	}
	for _, c := range balancer.HeatSelect(v, d.From, d.Amount/load, candidateLimit) {
		b.tracePick(v, c, d)
		balancer.SubmitCandidate(v, c, d.From, d.To)
	}
}

// tracePick emits one selector pick: the subtree the policy chose to
// move for the given plan decision.
func (b *Lunule) tracePick(v balancer.View, c balancer.Candidate, d Decision) {
	if !b.bus.Enabled(obs.EvSelect) {
		return
	}
	f := obs.F{
		"from": int(d.From), "to": int(d.To),
		"dir": uint64(c.RootDir()), "load": c.Load, "entry": c.IsEntry,
	}
	if c.IsEntry {
		f["frag"] = c.Key.Frag.String()
	}
	b.bus.Emit(obs.Event{Tick: v.Tick(), Type: obs.EvSelect, Fields: f})
}
