package cluster

import (
	"repro/internal/client"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// This file implements the phased tick engine: the client-serve part
// of Cluster.Step, restructured so that client cohorts and MDS ranks
// can execute on a worker pool while producing byte-identical output
// at every worker count (including one — the serial engine is this
// same code run inline; see runParallel).
//
// serveTick owns the parts of a tick both serve modes share.
// Write-back (serveBatches, wb.go) runs one plan/admit pass and its
// rounds with batches in place of runs. The sync mode (serveRuns) runs
// in planning phases, each of which executes as a sequence of rounds:
//
//	plan (parallel over cohorts)
//	    Each active client routes its whole remaining tick: the queued
//	    ops ahead of it (drawn from the stream into the client's
//	    pending queue) are split into "runs" — maximal batches of
//	    consecutive ops resolving to the same authoritative rank —
//	    bounded by the client's credit. Planning stops early at ops
//	    whose outcome gates the stream (a data-path op, a create from
//	    a tree-reading stream); such clients re-plan in the next phase.
//	admit (serial, tick shuffle order)
//	    Each rank's per-tick budget is arbitrated across the planned
//	    runs in one pass over the clients in the tick's shuffled order
//	    (cohort order from the cluster stream, member order from the
//	    cohort stream): a client reserves budget for its runs in
//	    sequence until a rank's pool runs dry, where it is cut — it
//	    will serve the admitted prefix and stall, exactly as the old
//	    serial loop stalled a client mid-credit on a saturated rank.
//	    Arbitrating the full tick in client order, rather than letting
//	    each round drain budget before the next exists, is what keeps
//	    budget contention fair: a client whose saturated-rank ops sit
//	    behind a rank switch competes in shuffle order, not at
//	    round-two priority (which would starve it for as long as the
//	    rank stays saturated).
//	round r: serve (parallel over ranks)
//	    Each rank lane serves the runs scheduled to it this round —
//	    every uncut client's r-th planned run — in tick shuffle order.
//	    Everything a lane touches is owned by it: the clients in its
//	    runs (a client's r-th run targets exactly one rank), its own
//	    server state, and its lane-local buffers. Cross-rank effects —
//	    relay budget charges, stall notes, created inodes, first-visit
//	    marks, backoff events, global counters — are buffered in the
//	    lane.
//	round r: barrier (serial, ascending rank order)
//	    Buffered effects are applied: created inodes are adopted into
//	    the tree (this assigns inode numbers, so the order is part of
//	    the determinism contract), relay charges and stalls land on
//	    their servers, events flush to the bus, data-path debtors pay
//	    the OSD pool, and counters merge.
//
// Rounds repeat until no client has a next planned run; phases repeat
// while any client cleanly finished its plan with credit to spare.
// Relay admission uses the round-start budget snapshot rather than
// live cross-rank reads; the snapshot-admitted charges are applied at
// the barrier, flooring each budget at zero. (The old serial path had
// a latent bug here: a chain relaying through the authoritative rank
// could drain the auth's budget between its HasBudget check and Serve,
// completing the op without serving it. Snapshot admission makes that
// window impossible.)
//
// RNG partitioning: the cluster stream (c.rand) is consumed only in
// serial sections (the per-tick cohort-order shuffle, epoch-close
// balancing). Each cohort owns a Source forked from the experiment
// seed at construction and consumes it only inside its own routing
// subphase, so the streams are identical at every worker count.

// engineCohortSize is the target number of clients per cohort, and
// engineMaxCohorts clamps the cohort count. Each cohort owns an RNG
// stream forked by its index, so both constants fix every run's
// output: changing either reshuffles the per-cohort streams.
const (
	engineCohortSize = 8
	engineMaxCohorts = 16
)

// execStatus is the outcome of one op attempt.
type execStatus int

const (
	// execOK: the op was served (or completed as a raced create).
	execOK execStatus = iota
	// execStall: a saturated or frozen target; retry next tick.
	execStall
	// execStallDown: the authoritative or a relaying rank is down;
	// retry with backoff and account the attempt as stalled-on-down.
	execStallDown
)

// run is one client's batch of same-rank ops: n queued ops with
// resolved entries at entBuf[ent:ent+n] in the owning cohort. adm is
// the admitted prefix — the ops the budget arbitration reserved space
// for; serving stalls at the first op past it.
type run struct {
	client int32
	n      int32
	adm    int32
	ent    int32
	rank   int32
}

// plan is one client's routed tick: count consecutive runs starting at
// the owning cohort's runs[start]. cut is the index of the first run
// the budget arbitration truncated (count when none was).
type plan struct {
	client int32
	start  int32
	count  int32
	cut    int32
}

// cohort is a fixed block of clients that routes together. Everything
// here is written only by the cohort's own routing subphase.
type cohort struct {
	members []int32     // client IDs, fixed at construction
	rand    *rng.Source // cohort-private stream, forked from the seed

	shuffled []int32 // members with credit this tick, in shuffled order
	active   []int32 // clients still planning this phase (order preserved)
	nextAct  []int32 // scratch for the next phase's active list

	runs    []run
	plans   []plan
	entBuf  []namespace.Entry
	byRank  [][]int32 // per rank: indices into runs, this round
	touched []int32   // ranks with scheduled runs this round
}

// createKey identifies a promised create within a rank lane.
type createKey struct {
	parent namespace.Ino
	name   string
}

// rankLane is one rank's serve-phase shard: lane-local buffers for
// everything the rank's serving would otherwise write cross-shard.
type rankLane struct {
	rank namespace.MDSID

	lat metrics.LatencyShard
	// tnServed / tlat shard per-tenant served counts and latency
	// histograms (nil unless the cluster runs tenant QoS); the serial
	// end of tick merges them in ascending rank order.
	tnServed []int64
	tlat     []metrics.LatencyShard
	events   []obs.Event
	fwdOut   []int32 // per rank: relay charges buffered this round
	fwdTch   []int32 // ranks with nonzero fwdOut, in first-charge order
	stalls   []int64 // per rank: stall notes buffered this round
	stallT   []int32
	fwdN     int64 // cluster-level forward count delta
	downN    int64 // stalled-on-down delta
	racedN   int64 // raced-create delta
	leaseN   int64 // ops served under a read lease this round
	// revokes buffers write-invalidated leased keys; the barrier applies
	// them (revokeLease) in ascending rank order.
	revokes []namespace.FragKey
	debtors []int32
	creates []*namespace.Inode
	visits  []*namespace.Inode
	// records buffers the write-back trace records of existing inodes.
	// Admission re-resolves only a batch's first op, so a batch can
	// carry an op on an inode another rank's lane serves in the same
	// round; the barrier applies the records in ascending rank order,
	// keeping each inode's access state single-writer.
	records []laneRecord
	chain   []namespace.MDSID
	aside   map[createKey]*namespace.Inode
	arena   namespace.InodeArena

	// batchCommits counts group-commit applications this round
	// (write-back mode only; always zero in the sync engine).
	batchCommits int64
}

// laneRecord is one deferred trace record: an access to in under key.
type laneRecord struct {
	key namespace.FragKey
	in  *namespace.Inode
}

// engine holds the phased tick engine's amortized state.
type engine struct {
	c       *Cluster
	workers int

	cohorts     []*cohort
	cohortOrder []int // shuffled per tick; lane processing order

	// Per-client tick state, indexed by client ID. blocked is written
	// from parallel rank lanes, but each index is written only by the
	// single lane serving that client this round.
	credit       []int64
	participated []bool
	blocked      []bool

	lanes      []*rankLane
	avail      []int32 // per rank: unreserved serve budget this tick
	budgetSnap []int32
	roundRanks []int // ranks with work this serve round, ascending
	rankMark   []uint64
	roundSeq   uint64

	// The current tick/epoch plus the three fan-out closures, bound
	// once at construction: handing runParallel a fresh closure every
	// phase would allocate on the steady tick path (dozens of times per
	// tick — one per plan phase and serve round).
	tick, epoch int64
	beginTickFn func(int)
	planFn      func(int)
	serveFn     func(int)

	// wb is the write-back batching state (wb.go), non-nil only when
	// Config.Batching selects a real batching regime. The degenerate
	// {BatchSize:1, FlushEvery:1} configuration leaves it nil so
	// serveTick runs the sync serveRuns.
	wb *wbState
}

// newEngine builds the engine for a freshly constructed cluster,
// forking one RNG stream per cohort from the experiment seed. Cohort
// membership is a pure function of the client count, never of the
// worker count — worker-count invariance starts here.
func newEngine(c *Cluster, src *rng.Source) *engine {
	e := &engine{
		c:            c,
		workers:      c.cfg.Workers,
		credit:       make([]int64, len(c.clients)),
		participated: make([]bool, len(c.clients)),
		blocked:      make([]bool, len(c.clients)),
	}
	if e.workers < 1 {
		e.workers = 1
	}
	n := len(c.clients)
	numCohorts := (n + engineCohortSize - 1) / engineCohortSize
	if numCohorts > engineMaxCohorts {
		numCohorts = engineMaxCohorts
	}
	for k := 0; k < numCohorts; k++ {
		co := &cohort{rand: src.Fork(uint64(100 + k))}
		// Contiguous blocks: client i belongs to cohort i*numCohorts/n.
		lo, hi := k*n/numCohorts, (k+1)*n/numCohorts
		for i := lo; i < hi; i++ {
			co.members = append(co.members, int32(i))
		}
		e.cohorts = append(e.cohorts, co)
		e.cohortOrder = append(e.cohortOrder, k)
	}
	e.beginTickFn = func(k int) { e.cohorts[k].beginTick(e) }
	e.planFn = func(k int) { e.cohorts[k].plan(e, e.tick) }
	e.serveFn = func(j int) { e.serveRank(e.roundRanks[j], e.tick, e.epoch) }
	if bc := c.cfg.Batching; bc != nil && (bc.BatchSize > 1 || bc.FlushEvery > 1) {
		e.wb = newWBState(e, bc)
	}
	return e
}

// ensure sizes the per-rank state to the current server count (ranks
// can be added mid-run) without reallocating on the steady path.
func (e *engine) ensure() {
	nr := len(e.c.servers)
	for len(e.lanes) < nr {
		e.lanes = append(e.lanes, &rankLane{
			rank:  namespace.MDSID(len(e.lanes)),
			aside: make(map[createKey]*namespace.Inode),
		})
	}
	if cap(e.budgetSnap) < nr {
		e.budgetSnap = make([]int32, nr)
		e.avail = make([]int32, nr)
		e.rankMark = make([]uint64, nr)
		e.roundRanks = make([]int, 0, nr)
	}
	e.budgetSnap = e.budgetSnap[:nr]
	e.avail = e.avail[:nr]
	e.rankMark = e.rankMark[:nr]
	for _, lane := range e.lanes {
		for len(lane.fwdOut) < nr {
			lane.fwdOut = append(lane.fwdOut, 0)
		}
	}
	for _, co := range e.cohorts {
		for len(co.byRank) < nr {
			co.byRank = append(co.byRank, nil)
		}
	}
	if e.wb != nil {
		for len(e.wb.byRank) < nr {
			e.wb.byRank = append(e.wb.byRank, nil)
		}
		for len(e.wb.rankRounds) < nr {
			e.wb.rankRounds = append(e.wb.rankRounds, 0)
		}
	}
	if tn := e.c.tn; tn != nil {
		nt := tn.N()
		for _, lane := range e.lanes {
			if lane.tnServed == nil {
				lane.tnServed = make([]int64, nt)
				lane.tlat = make([]metrics.LatencyShard, nt)
			}
		}
	}
}

// serveTick runs the serve phase of one tick for both modes: gating
// and credit accrual, the tick shuffle and budget pools, then the
// sync plan phases (serveRuns) or the write-back flush/admit pass
// (serveBatches, wb.go), and finally the latency merge and
// job-completion sweep.
func (e *engine) serveTick(tick, epoch int64) {
	c := e.c
	e.ensure()
	e.tick, e.epoch = tick, epoch

	// Pre-phase (serial, client ID order): gating exactly as the old
	// per-client step — done/not-started, retry backoff, data debt —
	// then credit accrual for everyone who participates.
	anyActive := false
	for i, cl := range c.clients {
		e.participated[i] = false
		e.credit[i] = 0
		if cl.Done() || tick < cl.StartTick() {
			continue
		}
		if !cl.RetryReady(tick) {
			continue // backing off after failures against a down rank
		}
		if cl.Debt() > 0 {
			cl.PayDebt(c.osds.Consume(cl.Debt()))
			if cl.Debt() > 0 {
				continue // still blocked on the data path
			}
		}
		n := cl.AccrueCredit()
		e.participated[i] = true
		if n > 0 && !cl.Idle() {
			e.credit[i] = int64(n)
			anyActive = true
		}
		if e.wb != nil && cl.PendingOps() > 0 {
			// Buffered or journaled ops exist: flush-age triggers and
			// batch application must run even with no fresh credit.
			anyActive = true
		}
	}

	if anyActive {
		// Shuffle the per-tick orders: the cohort processing order from
		// the cluster stream (serial), each cohort's member order from
		// its own stream (parallel, cohort-owned).
		c.rand.ShuffleInts(e.cohortOrder)
		runParallel(e.workers, len(e.cohorts), e.beginTickFn)
		clear(e.blocked)
		// The tick's serve-budget pools, drawn down by admission. One
		// pool per tick, not per phase: a client that re-plans after a
		// create competes for what the first phase left.
		for i, s := range c.servers {
			e.avail[i] = int32(s.RemainingBudget())
		}
		if e.wb != nil {
			e.serveBatches(tick)
		} else {
			e.serveRuns(tick)
		}
	}

	// End of tick (serial): merge latency shards in rank order (pure
	// integer adds — any order would produce the same bytes, rank order
	// keeps it obviously deterministic), then the completion sweep in
	// client ID order over everyone who participated this tick.
	for _, lane := range e.lanes {
		if lane.lat.Dirty() {
			c.rec.MergeLatencyShard(&lane.lat)
		}
	}
	e.mergeTenantShards()
	for i, cl := range c.clients {
		if e.participated[i] && cl.MaybeFinish(tick) {
			c.doneN++
			c.rec.AddJCT(tick)
			if c.tn != nil {
				c.rec.AddTenantJCT(cl.Tenant, tick)
			}
		}
	}
}

// serveRuns is the sync serve: plan phases, each admitted and served
// in rounds, repeated while a client cleanly finished its plan with
// credit to spare.
func (e *engine) serveRuns(tick int64) {
	for {
		runParallel(e.workers, len(e.cohorts), e.planFn)
		if !e.admit() {
			return
		}
		for r := 0; e.scheduleRound(r); r++ {
			e.serveRound(tick, e.serveFn)
		}
		if !e.rebuildActive() {
			return
		}
	}
}

// serveRound runs one scheduled round for either mode: the relay
// budget snapshot, the parallel serve over e.roundRanks, and the
// serial barrier.
func (e *engine) serveRound(tick int64, serve func(int)) {
	for i, s := range e.c.servers {
		e.budgetSnap[i] = int32(s.RemainingBudget())
	}
	runParallel(e.workers, len(e.roundRanks), serve)
	e.applyBarrier(tick)
}

// mergeTenantShards folds every lane's per-tenant served counts and
// latency shards into the cluster at the serial end of the tick.
// Integer adds in ascending (rank, tenant) order — deterministic at
// any worker count. No-op on single-tenant runs (the lanes never
// allocate tenant shards).
func (e *engine) mergeTenantShards() {
	c := e.c
	if c.tn == nil {
		return
	}
	for _, lane := range e.lanes {
		for t := range lane.tlat {
			if lane.tlat[t].Dirty() {
				c.rec.MergeTenantLatencyShard(t, &lane.tlat[t])
			}
			if n := lane.tnServed[t]; n != 0 {
				c.tnServedTick[t] += n
				lane.tnServed[t] = 0
			}
		}
	}
}

// beginTick builds the cohort's shuffled active list for the tick from
// the members that accrued credit, consuming the cohort stream only
// when the cohort has any such member (so idle cohorts do not advance
// their streams).
func (co *cohort) beginTick(e *engine) {
	co.shuffled = co.shuffled[:0]
	for _, ci := range co.members {
		if e.credit[ci] > 0 {
			co.shuffled = append(co.shuffled, ci)
		}
	}
	if len(co.shuffled) > 1 {
		co.rand.Shuffle(len(co.shuffled), func(i, j int) {
			co.shuffled[i], co.shuffled[j] = co.shuffled[j], co.shuffled[i]
		})
	}
	co.active = co.active[:0]
	co.active = append(co.active, co.shuffled...)
}

// resolveOp returns the entry governing one op: the governing entry of
// its target, or, for a create of a not-yet-existing name, the entry
// that will govern the child once adopted (GoverningChildEntry), so the
// create is routed to the rank that owns its future home. Promised
// (unadopted) inodes are never resolved here: within a round they are
// visible only through the owning lane's lookaside map.
func resolveOp(part *namespace.Partition, op workload.Op) namespace.Entry {
	target := op.Target
	if op.Kind == workload.OpCreate {
		target = op.Parent.Child(op.Name)
		if target == nil {
			return part.GoverningChildEntry(op.Parent, namespace.HashName(op.Name))
		}
	}
	return part.GoverningEntry(target)
}

// endsRun reports whether op must be the last of its run: a data-path
// op blocks the client on its debt, and a create from a tree-reading
// stream must be adopted before the stream may draw again (the next
// recorded op can resolve a path through the created inode).
func (e *engine) endsRun(cl *client.Client, op workload.Op) bool {
	if e.c.cfg.DataPath && op.DataSize > 0 {
		return true
	}
	return op.Kind == workload.OpCreate && cl.StreamReadsTree()
}

// plan routes each active client's whole remaining tick: its queued
// ops, bounded by credit, split into runs at authority switches.
// Planning stops after an op whose outcome gates the stream (endsRun);
// the client re-plans in the next phase once the outcome has landed.
func (co *cohort) plan(e *engine, tick int64) {
	co.runs = co.runs[:0]
	co.plans = co.plans[:0]
	co.entBuf = co.entBuf[:0]
	for _, ci := range co.active {
		cl := e.c.clients[ci]
		credit := e.credit[ci]
		start := int32(len(co.runs))
		nRuns := int32(0)
		for k := int64(0); k < credit; k++ {
			op, ok := cl.PeekOp(int(k), tick)
			if !ok {
				break // stream exhausted with an empty queue
			}
			ent := resolveOp(e.c.part, op)
			rank := int32(ent.Auth)
			if lt := e.c.lt; lt != nil && lt.Len() != 0 && !op.Kind.IsWrite() {
				// A read on a leased subtree may serve at a lease holder
				// instead of the authority; the run then targets the
				// holder's rank and budget.
				if holders := lt.Holders(ent.Key); len(holders) != 0 && op.Target != nil {
					rank = e.leaseRank(ent, holders, op.Target.Ino)
				}
			}
			if nRuns == 0 || co.runs[start+nRuns-1].rank != rank {
				co.runs = append(co.runs, run{
					client: ci, rank: rank, ent: int32(len(co.entBuf)),
				})
				nRuns++
			}
			co.entBuf = append(co.entBuf, ent)
			co.runs[start+nRuns-1].n++
			if e.endsRun(cl, op) {
				break
			}
		}
		if nRuns > 0 {
			co.plans = append(co.plans, plan{client: ci, start: start, count: nRuns})
		}
	}
}

// admit arbitrates each rank's per-tick serve budget across the
// planned runs, walking the clients in the tick's shuffled order and
// each client's runs in sequence. A client whose run does not fully
// fit is cut there: the run keeps its admitted prefix and the client's
// later runs are dropped (it will stall at the cut, as the serial loop
// stalled a client mid-credit on a saturated rank). Returns false when
// no cohort planned anything.
func (e *engine) admit() bool {
	planned := false
	tn := e.c.tn
	for _, k := range e.cohortOrder {
		co := e.cohorts[k]
		for pi := range co.plans {
			p := &co.plans[pi]
			p.cut = p.count
			planned = true
			for j := int32(0); j < p.count; j++ {
				r := &co.runs[p.start+j]
				if !e.c.servers[r.rank].Up() {
					// A down rank has no budget to arbitrate: the run is
					// admitted whole so its first op takes the stall-down
					// path (backoff, stalled-on-down accounting), exactly
					// as the serial loop checked Up before HasBudget. The
					// client blocks there, so later runs reserve nothing.
					r.adm = r.n
					p.cut = j
					break
				}
				if tn != nil {
					if e.admitTenantRun(tn, p, r, j) {
						break
					}
					continue
				}
				if a := e.avail[r.rank]; a < r.n {
					r.adm = a
					e.avail[r.rank] = 0
					p.cut = j
					break
				}
				r.adm = r.n
				e.avail[r.rank] -= r.n
			}
		}
	}
	return planned
}

// admitTenantRun arbitrates one planned run with tenant QoS on: the
// run is charged to its owner's token bucket BEFORE the rank pool, so
// an over-quota tenant is throttled at admission no matter how much
// rank budget is free. Reports whether the plan was cut at this run
// (bucket throttle or pool shortfall).
//
// With uncontended buckets (grant always == r.n) the arithmetic below
// reduces exactly to the QoS-off branch — adm == a zeroes the pool on
// a shortfall, full grants drain it by r.n — which is what keeps an
// idle QoS attachment byte-identical to no attachment.
func (e *engine) admitTenantRun(tn *tenant.Manager, p *plan, r *run, j int32) bool {
	t := e.c.clients[r.client].Tenant
	grant := int32(tn.Take(t, int(r.n)))
	adm := grant
	if a := e.avail[r.rank]; a < adm {
		// The pool cannot cover the bucket grant: hand the uncovered
		// tokens back (a pool stall is not a quota spend) and record
		// the shortfall as SLO debt — the tenant had quota but the
		// cluster had no capacity.
		tn.Refund(t, int(adm-a))
		tn.NoteStalled(t, int(adm-a))
		adm = a
	}
	e.avail[r.rank] -= adm
	r.adm = adm
	tn.NoteAdmitted(t, int(adm))
	e.c.tnAdmittedTick += int64(adm)
	if grant < r.n {
		// Bucket throttle: the quota denied the run's tail. The rank
		// pool is NOT zeroed — other tenants may still draw from it —
		// and the client takes the ordinary admission-cut stall at the
		// granted prefix.
		tn.NoteThrottled(t, int(r.n-grant))
		p.cut = j
		return true
	}
	if adm < r.n {
		p.cut = j
		return true
	}
	return false
}

// scheduleRound buckets every surviving client's r-th planned run into
// its cohort's per-rank lists and collects the union of target ranks
// in ascending order. It returns false when the round is empty (the
// phase is over).
func (e *engine) scheduleRound(r int) bool {
	e.roundSeq++
	any := false
	rr := int32(r)
	for _, co := range e.cohorts {
		for _, t := range co.touched {
			co.byRank[t] = co.byRank[t][:0]
		}
		co.touched = co.touched[:0]
		for pi := range co.plans {
			p := &co.plans[pi]
			if rr >= p.count || rr > p.cut || e.blocked[p.client] {
				continue
			}
			ri := p.start + rr
			rank := co.runs[ri].rank
			if len(co.byRank[rank]) == 0 {
				co.touched = append(co.touched, rank)
			}
			co.byRank[rank] = append(co.byRank[rank], ri)
			e.rankMark[rank] = e.roundSeq
			any = true
		}
	}
	if !any {
		return false
	}
	e.roundRanks = e.roundRanks[:0]
	for rank := range e.rankMark {
		if e.rankMark[rank] == e.roundSeq {
			e.roundRanks = append(e.roundRanks, rank)
		}
	}
	return true
}

// leaseRank picks the rank that serves a read on a leased subtree: the
// target's inode number indexes uniformly into the live candidates
// (the primary plus the lease holders, in that fixed order), so a
// storm's reads spread evenly and every inode sticks to exactly one
// replica while the holder set is stable. Inode-sticky — not
// client-sticky — is load-bearing for the parallel engine: the serve
// path touches per-inode access state (trace.RecordNoVisit mutates
// Hot), and routing all reads of an inode to one rank keeps that state
// single-writer within a tick. Routing on last-epoch loads instead
// oscillates: the loads are a full epoch stale, so whichever rank
// looked idle at epoch close absorbs the entire next epoch's stream
// and the roles flip every epoch. The uniform spread is stable, keeps
// every candidate under demand/n, and is a pure function of (entry,
// holders, inode) — no shared mutable reads — so it is identical at
// every worker count.
func (e *engine) leaseRank(ent namespace.Entry, holders []namespace.MDSID, ino namespace.Ino) int32 {
	c := e.c
	var cands [8]namespace.MDSID
	n := 0
	add := func(r namespace.MDSID) {
		if n < len(cands) && int(r) < len(c.servers) && c.servers[r].Up() {
			cands[n] = r
			n++
		}
	}
	add(ent.Auth)
	for _, h := range holders {
		if h != ent.Auth {
			add(h)
		}
	}
	if n == 0 {
		return int32(ent.Auth)
	}
	return int32(cands[ino%namespace.Ino(n)])
}

// rebuildActive keeps, for the next planning phase, the clients that
// finished their whole plan cleanly and still hold credit (a plan ends
// early at a stream-gating op, so there may be more tick to route).
// Order within each cohort is preserved from the tick shuffle.
func (e *engine) rebuildActive() bool {
	any := false
	for _, co := range e.cohorts {
		co.nextAct = co.nextAct[:0]
		for _, p := range co.plans {
			ci := p.client
			if e.blocked[ci] || e.credit[ci] <= 0 || e.c.clients[ci].Idle() {
				continue
			}
			co.nextAct = append(co.nextAct, ci)
		}
		co.active, co.nextAct = co.nextAct, co.active
		any = any || len(co.active) > 0
	}
	return any
}

// serveRank executes one rank lane for the round: it serves the runs
// routed to this rank, in tick cohort order and intra-cohort routed
// order, buffering every cross-rank effect in the lane.
func (e *engine) serveRank(rank int, tick, epoch int64) {
	c := e.c
	lane := e.lanes[rank]
	auth := c.servers[rank]
	for _, k := range e.cohortOrder {
		co := e.cohorts[k]
		runs := co.byRank[rank]
		if len(runs) == 0 {
			continue
		}
		for _, ri := range runs {
			r := co.runs[ri]
			cl := c.clients[r.client]
			ents := co.entBuf[r.ent : r.ent+r.n]
			served, blocked := int32(0), false
			for served < r.adm {
				op, _ := cl.PeekOp(0, tick)
				st, downRank := e.execOp(lane, auth, cl, op, ents[served], epoch)
				if st == execStallDown {
					lane.stallDown(c.bus, cl, downRank, tick)
					blocked = true
					break
				}
				if st == execStall {
					cl.Retain()
					blocked = true
					break
				}
				lane.complete(c.bus, cl, tick)
				if lane.tnServed != nil {
					auth.AddTenantHeat(ents[served].Key, cl.Tenant, 1)
				}
				served++
				e.credit[r.client]--
				if c.cfg.DataPath && op.DataSize > 0 {
					// The data transfer blocks the client until paid; the
					// debt is paid (OSD pool access is serial) at the
					// barrier, which re-activates the client on success.
					cl.AddDebt(op.DataSize)
					lane.debtors = append(lane.debtors, r.client)
					blocked = true
					break
				}
			}
			if !blocked && served < r.n {
				// The admission cut: the rank's tick budget was reserved
				// ahead of this op. Stall here exactly as the old loop
				// stalled a client mid-credit on a saturated rank.
				lane.noteStall(lane.rank)
				cl.Retain()
				blocked = true
			}
			if blocked {
				e.blocked[r.client] = true
			}
		}
	}
}

// execOp attempts one op against its authoritative rank, mirroring the
// old serial execute() but with every cross-rank write buffered:
// relay-budget admission reads the round-start snapshot and the
// charges land at the barrier; creates produce promised inodes adopted
// at the barrier.
func (e *engine) execOp(lane *rankLane, auth *mds.Server, cl *client.Client,
	op workload.Op, entry namespace.Entry, epoch int64) (execStatus, namespace.MDSID) {
	c := e.c
	target := op.Target
	if op.Kind == workload.OpCreate {
		target = op.Parent.Child(op.Name)
		if target == nil {
			key := createKey{parent: op.Parent.Ino, name: op.Name}
			if p := lane.aside[key]; p != nil {
				// Another client already promised this name this round:
				// the create acts on the (about-to-exist) inode.
				target = p
			} else {
				in, err := lane.arena.NewFile(op.Parent, op.Name, op.Size)
				if err != nil {
					// Invalid name: treat as served. No MDS serves the
					// op, so count it for the auditor's ops-conservation
					// reconciliation.
					lane.racedN++
					return execOK, 0
				}
				lane.aside[key] = in
				lane.creates = append(lane.creates, in)
				target = in
			}
		}
	}
	if !auth.Up() {
		lane.noteStall(lane.rank)
		return execStallDown, lane.rank
	}
	if c.migrator.IsFrozen(entry.Key) {
		lane.noteStall(lane.rank)
		return execStall, 0
	}
	if !auth.HasBudget() {
		lane.noteStall(lane.rank)
		return execStall, 0
	}
	write := op.Kind.IsWrite()
	if lane.rank != entry.Auth {
		// Lease serve: the plan phase routed this read to a
		// non-authoritative lease holder, which serves it from its
		// replica — no client-cache or relay work (the client holds the
		// lease grant; reads resolve to the holder directly).
		e.serve(lane, auth, entry, target, epoch, false)
		lane.leaseN++
		return execOK, 0
	}
	cached, ok := cl.CacheLookup(entry.Key)
	if ok && cached == entry.Auth {
		e.serve(lane, auth, entry, target, epoch, write)
		e.noteWrite(lane, entry.Key, write)
		return execOK, 0
	}
	// Cache miss or stale mapping: the request relays along the
	// authority chain.
	if st, h := e.relay(lane, target); st != execOK {
		return st, h
	}
	e.serve(lane, auth, entry, target, epoch, write)
	e.noteWrite(lane, entry.Key, write)
	cl.CacheStore(entry.Key, entry.Auth)
	return execOK, 0
}

// relay walks the authority chain to target for a request that missed
// the client cache. Every relaying hop must be up and hold budget in
// the round-start snapshot; on success the hops' forward charges are
// buffered for the barrier, which applies them in rank order. It
// returns the stall status and, for a down hop, that hop's rank.
func (e *engine) relay(lane *rankLane, target *namespace.Inode) (execStatus, namespace.MDSID) {
	chain, _ := e.c.part.ResolveChainInto(lane.chain, target)
	lane.chain = chain[:0]
	hops := chain[:len(chain)-1]
	for _, h := range hops {
		if !e.c.servers[h].Up() {
			lane.noteStall(h)
			return execStallDown, h
		}
		if e.budgetSnap[h] <= 0 {
			lane.noteStall(h)
			return execStall, 0
		}
	}
	for _, h := range hops {
		if lane.fwdOut[h] == 0 {
			lane.fwdTch = append(lane.fwdTch, int32(h))
		}
		lane.fwdOut[h]++
	}
	lane.fwdN += int64(len(hops))
	return execOK, 0
}

// serve records one access on the serving rank (the authority, or a
// lease holder for lease-served reads), deferring the first-visit
// ancestor walk to the barrier (it writes shared ancestor counters).
func (e *engine) serve(lane *rankLane, auth *mds.Server, entry namespace.Entry,
	in *namespace.Inode, epoch int64, write bool) {
	// Cannot fail: HasBudget was checked by the caller and only this
	// lane drains this server's budget mid-round.
	_, first := auth.ServeDeferVisit(entry, in, epoch, write)
	if first {
		lane.visits = append(lane.visits, in)
	}
}

// noteWrite buffers a lease revoke when a write just served against a
// leased subtree; the barrier applies it. Reads and unleased subtrees
// cost one branch.
func (e *engine) noteWrite(lane *rankLane, key namespace.FragKey, write bool) {
	if write && e.c.lt != nil && e.c.lt.Has(key) {
		lane.revokes = append(lane.revokes, key)
	}
}

// complete finishes the client's head op on this lane: the
// backoff-exit event when the op ends a backoff, then the latency
// sample into the lane's shard and, with tenant QoS on, the tenant's.
func (lane *rankLane) complete(bus *obs.Bus, cl *client.Client, tick int64) {
	if cl.Backoff() > 0 && bus.Enabled(obs.EvBackoffExit) {
		// The op that was backing off finally served: the client
		// leaves the backoff regime.
		f := obs.AcquireF()
		f["client"], f["reason"] = cl.ID, "served"
		lane.events = append(lane.events, obs.Event{Tick: tick, Type: obs.EvBackoffExit, Fields: f})
	}
	lat := cl.CompleteOp(tick)
	lane.lat.Add(lat)
	if lane.tnServed != nil {
		lane.tnServed[cl.Tenant]++
		lane.tlat[cl.Tenant].Add(lat)
	}
}

// stallDown takes the stall-down path for an attempt that met a down
// rank: stalled-on-down accounting, capped-exponential client backoff
// against that rank, and the buffered backoff-enter event.
func (lane *rankLane) stallDown(bus *obs.Bus, cl *client.Client, rank namespace.MDSID, tick int64) {
	lane.downN++
	cl.RetainBackoff(tick, rank)
	if bus.Enabled(obs.EvBackoffEnter) {
		lane.events = append(lane.events, backoffEnter(cl, tick))
	}
}

// backoffEnter builds the event of a client entering (or widening) its
// retry backoff.
func backoffEnter(cl *client.Client, tick int64) obs.Event {
	f := obs.AcquireF()
	f["client"], f["backoff"], f["retry_at"] = cl.ID, cl.Backoff(), tick+cl.Backoff()
	return obs.Event{Tick: tick, Type: obs.EvBackoffEnter, Fields: f}
}

// noteStall buffers one stall note against a rank (applied at the
// barrier; the per-rank slices are sized lazily because stalls are off
// the hot path).
func (lane *rankLane) noteStall(r namespace.MDSID) {
	if len(lane.stalls) <= int(r) {
		lane.stalls = append(lane.stalls, make([]int64, int(r)+1-len(lane.stalls))...)
	}
	if lane.stalls[r] == 0 {
		lane.stallT = append(lane.stallT, int32(r))
	}
	lane.stalls[r]++
}

// applyBarrier applies every lane's buffered effects in ascending rank
// order and pays data-path debtors (unblocking a debtor whose debt
// cleared, so it can re-plan in the next phase).
func (e *engine) applyBarrier(tick int64) {
	c := e.c
	for _, r := range e.roundRanks {
		lane := e.lanes[r]
		if e.wb != nil {
			// Write-back lanes promise creates probe-free; duplicate
			// (parent, name) slots are decided here, in rank order.
			for _, in := range lane.creates {
				if _, ok := c.tree.AdoptOrExisting(in); !ok {
					lane.racedN++
				}
			}
		} else {
			for _, in := range lane.creates {
				c.tree.Adopt(in)
			}
		}
		lane.creates = lane.creates[:0]
		if len(lane.aside) > 0 {
			clear(lane.aside)
		}
		for _, in := range lane.visits {
			in.MarkVisited()
		}
		lane.visits = lane.visits[:0]
		if len(lane.records) > 0 {
			coll := c.servers[r].Collector()
			for _, rec := range lane.records {
				if coll.RecordNoVisit(rec.key, rec.in, e.epoch) {
					rec.in.MarkVisited()
				}
			}
			lane.records = lane.records[:0]
		}
		for _, h := range lane.fwdTch {
			c.servers[h].AddForwardCharges(int(lane.fwdOut[h]))
			lane.fwdOut[h] = 0
		}
		lane.fwdTch = lane.fwdTch[:0]
		for _, h := range lane.stallT {
			c.servers[h].AddStalls(lane.stalls[h])
			lane.stalls[h] = 0
		}
		lane.stallT = lane.stallT[:0]
		c.forwards += lane.fwdN
		c.stalledDown += lane.downN
		c.racedCreates += lane.racedN
		c.leaseServes += lane.leaseN
		lane.fwdN, lane.downN, lane.racedN, lane.leaseN = 0, 0, 0, 0
		for _, k := range lane.revokes {
			c.revokeLease(k, "write")
		}
		lane.revokes = lane.revokes[:0]
		if lane.batchCommits != 0 {
			c.rec.AddBatchCommits(lane.batchCommits)
			lane.batchCommits = 0
		}
		for _, ev := range lane.events {
			c.bus.EmitPooled(ev)
		}
		lane.events = lane.events[:0]
		for _, ci := range lane.debtors {
			cl := c.clients[ci]
			cl.PayDebt(c.osds.Consume(cl.Debt()))
			if cl.Debt() == 0 && e.credit[ci] > 0 {
				e.blocked[ci] = false
			}
		}
		lane.debtors = lane.debtors[:0]
	}
}
