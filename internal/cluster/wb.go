package cluster

import (
	"repro/internal/client"
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file implements the write-back serve: serveBatches, the batched
// counterpart of serveRuns (engine.go) inside the shared serveTick,
// active when Config.Batching selects a real batching regime
// (BatchSize > 1 or FlushEvery > 1). The degenerate {1,1}
// configuration deliberately leaves the write-back state nil so the
// cluster runs the synchronous control flow verbatim — byte-identity
// with the sync path is by construction, and the differential test
// guards it against drift.
//
// The mode changes the client contract: instead of attempting each op
// synchronously, a client buffers drawn ops locally and flushes them in
// per-destination batches. A tick runs:
//
//	plan (parallel over cohorts)
//	    Each participating client draws up to its credit of new ops
//	    into its pending queue (credit is consumed at draw time), then
//	    splits the locally buffered suffix into runs at governing-entry
//	    switches. A run is flushable when it reaches BatchSize ops,
//	    when its oldest op has been buffered FlushEvery ticks, or when
//	    the stream is exhausted (tail flush). Only a flushable PREFIX
//	    flushes — queue order is the dependency order (a create
//	    precedes every op that depends on it in its client's stream),
//	    so a held-back run holds back everything behind it.
//	admit (serial, tick shuffle order, then ID order for clients whose
//	    only work is outstanding journaled batches)
//	    Flushable runs become Batches pushed into their rank's
//	    group-commit journal (mds.Journal); the ops stay in the client
//	    queue, counted by the client's in-flight prefix. Then each
//	    client's outstanding batches are admitted FIFO against the
//	    per-rank budget pools at group granularity: a batch of n ops
//	    costs ceil(n/BatchSize) budget units — the group-commit
//	    amortization. Retained batches (journaled in an earlier tick)
//	    re-resolve their governing entry through their first op and
//	    follow migrated authority to the new rank's journal.
//	serve rounds (parallel over ranks, barrier between rounds)
//	    Round r serves every unblocked client's r-th admitted batch.
//	    The lane does the client-cache / forward-chain work once per
//	    batch, charges budget once per group, and fast-applies the
//	    ops: per-op trace recording, latency, and create
//	    materialization (these are inherently per-op), with heat
//	    charged per parent-directory run in one weighted walk. The
//	    shared applyBarrier adopts creates and lands cross-rank
//	    effects exactly as in the sync engine.
//
// Visibility and crash rules: ops never leave the client queue until
// applied, so issued == done + pending holds unchanged; the in-flight
// prefix mirrors the rank journals (audited: Σ Inflight == Σ journal
// ops). A crash drops the dead rank's journal; every dropped batch
// re-queues the owning client's WHOLE outstanding suffix (later batches
// on live ranks included — queue order must survive), exactly once,
// because the batch objects are discarded.
//
// Known approximation: admission re-resolves a batch through its first
// op only. When a fragment split or an export moves the authority over
// a journaled batch's later ops, those ops are still served, budgeted,
// and heat- and trace-charged on the first op's rank under the first
// op's entry, not by their current authority, until the batch drains —
// a retained batch can wait several ticks. Another rank's lane may
// serve the same inodes in the same round, which is why the trace
// records of existing inodes wait for the barrier (rankLane.records).

// wbRun is one flushable same-entry run planned by a cohort.
type wbRun struct {
	n     int32
	since int64
	ent   namespace.Entry
}

// wbState is the engine's write-back mode state (nil in sync and
// degenerate modes).
type wbState struct {
	batchSize  int
	flushEvery int64

	// queues[ci] is client ci's outstanding journaled batches, FIFO
	// across ranks. The same Batch pointers live in the rank journals.
	queues [][]*mds.Batch

	// Per-client plan scratch; each slot is written only by the owning
	// cohort during the parallel plan phase.
	flStart []int32
	flCount []int32
	planned []bool
	gated   []bool

	runs     [][]wbRun // per cohort: flushable runs planned this tick
	cohortOf []int     // client -> owning cohort index

	byRank     [][]*mds.Batch // per rank: batches admitted this tick
	touched    []int32        // ranks with admitted batches this tick
	rankRounds []int32        // per rank: max admitted round + 1
	maxRound   int
	round      int

	planFn  func(int)
	serveFn func(int)
}

func newWBState(e *engine, bc *BatchingConfig) *wbState {
	n := len(e.c.clients)
	w := &wbState{
		batchSize:  bc.BatchSize,
		flushEvery: bc.FlushEvery,
		queues:     make([][]*mds.Batch, n),
		flStart:    make([]int32, n),
		flCount:    make([]int32, n),
		planned:    make([]bool, n),
		gated:      make([]bool, n),
		runs:       make([][]wbRun, len(e.cohorts)),
		cohortOf:   make([]int, n),
	}
	for k, co := range e.cohorts {
		for _, ci := range co.members {
			w.cohortOf[ci] = k
		}
	}
	w.planFn = func(k int) { e.wbPlanCohort(k, e.tick) }
	w.serveFn = func(j int) { e.wbServeRank(e.roundRanks[j], e.tick, e.epoch) }
	return w
}

// serveBatches is the write-back serve: one flush/admit pass and its
// serve rounds per tick, inside serveTick's shared gating and merge.
func (e *engine) serveBatches(tick int64) {
	w := e.wb
	runParallel(e.workers, len(e.cohorts), w.planFn)
	e.wbAdmit(tick)
	for r := 0; r < w.maxRound; r++ {
		w.round = r
		e.wbScheduleRound(r)
		e.serveRound(tick, w.serveFn)
	}
}

// wbPlanCohort draws and forms flushable runs for one cohort: the
// shuffled (credited) clients first, then any other participating
// member with buffered or journaled ops (flush-age triggers fire and
// retained batches re-admit even on zero-credit ticks).
func (e *engine) wbPlanCohort(k int, tick int64) {
	co := e.cohorts[k]
	w := e.wb
	runs := w.runs[k][:0]
	for _, ci := range co.members {
		w.flCount[ci] = 0
		w.planned[ci] = false
	}
	for _, ci := range co.shuffled {
		w.planned[ci] = true
		runs = e.wbPlanClient(co, runs, ci, tick)
	}
	for _, ci := range co.members {
		if w.planned[ci] || !e.participated[ci] {
			continue
		}
		if e.c.clients[ci].PendingOps() == 0 {
			continue
		}
		runs = e.wbPlanClient(co, runs, ci, tick)
	}
	w.runs[k] = runs
}

// wbPlanClient draws the client's new ops (bounded by credit, consumed
// at draw time) and splits the locally buffered suffix into runs at
// governing-entry switches, appending the flushable prefix to runs.
func (e *engine) wbPlanClient(co *cohort, runs []wbRun, ci int32, tick int64) []wbRun {
	w := e.wb
	cl := e.c.clients[ci]
	// A tree-reading stream must not draw past an unadopted create: the
	// gate set at that create clears once the queue has fully drained
	// (the gating create is always the newest queued op, and it is
	// adopted at the barrier of the tick that completes it).
	if w.gated[ci] && cl.PendingOps() == 0 {
		w.gated[ci] = false
	}
	if !w.gated[ci] {
		for e.credit[ci] > 0 {
			op, ok := cl.PeekOp(int(cl.PendingOps()), tick)
			if !ok {
				break // stream exhausted
			}
			e.credit[ci]--
			if e.endsRun(cl, op) {
				if op.Kind == workload.OpCreate && cl.StreamReadsTree() {
					w.gated[ci] = true
				}
				break
			}
		}
	}
	buf := int(cl.BufferedOps())
	if buf == 0 {
		return runs
	}
	base := int(cl.Inflight())
	start := int32(len(runs))
	i := 0
	// One-entry resolve memo keyed by the op's resolve-input inode
	// (the parent for creates, the target otherwise): sequential fills
	// resolve once per directory instead of once per op. Creates into a
	// fragmented directory are thereby grouped at parent granularity —
	// the batch-level approximation admission re-resolves anyway.
	var memoIn *namespace.Inode
	var memoEnt namespace.Entry
	for i < buf {
		op, _ := cl.PeekOp(base+i, tick)
		if rin := resolveIn(op); rin != memoIn {
			memoIn, memoEnt = rin, resolveOp(e.c.part, op)
		}
		ent := memoEnt
		n := 1
		ends := e.endsRun(cl, op)
		for !ends && i+n < buf {
			op2, _ := cl.PeekOp(base+i+n, tick)
			if rin2 := resolveIn(op2); rin2 != memoIn {
				memoIn, memoEnt = rin2, resolveOp(e.c.part, op2)
				if memoEnt.Key != ent.Key || memoEnt.Auth != ent.Auth {
					break // entry switch: the run ends here
				}
			}
			ends = e.endsRun(cl, op2)
			n++
		}
		since := cl.PeekSince(base + i)
		if n < w.batchSize && tick-since+1 < w.flushEvery && !cl.StreamDrained() {
			break // not flushable; prefix-only, so later runs wait too
		}
		runs = append(runs, wbRun{n: int32(n), since: since, ent: ent})
		i += n
	}
	if cnt := int32(len(runs)) - start; cnt > 0 {
		w.flStart[ci] = start
		w.flCount[ci] = cnt
	}
	return runs
}

// resolveIn is the inode an op's resolve depends on: the parent for a
// create, the target otherwise.
func resolveIn(op workload.Op) *namespace.Inode {
	if op.Kind == workload.OpCreate {
		return op.Parent
	}
	return op.Target
}

// wbAdmit journals the planned flushes and admits each client's
// outstanding batches against the per-rank budget pools, in the tick's
// shuffled client order, then (ID order) the clients whose only work is
// batches retained from earlier ticks.
func (e *engine) wbAdmit(tick int64) {
	w := e.wb
	w.maxRound = 0
	for i := range w.rankRounds {
		w.rankRounds[i] = 0
	}
	for _, t := range w.touched {
		w.byRank[t] = w.byRank[t][:0]
	}
	w.touched = w.touched[:0]
	for _, k := range e.cohortOrder {
		co := e.cohorts[k]
		for _, ci := range co.shuffled {
			e.wbAdmitClient(k, ci, tick)
		}
	}
	for ci := range e.c.clients {
		if w.planned[ci] || !e.participated[ci] {
			continue
		}
		if len(w.queues[ci]) == 0 && w.flCount[ci] == 0 {
			continue
		}
		e.wbAdmitClient(w.cohortOf[ci], int32(ci), tick)
	}
}

// wbAdmitClient flushes the client's planned runs into their rank
// journals, then walks its batch FIFO granting commit groups from the
// budget pools. A batch that cannot be (fully) admitted blocks every
// later batch of the same client — per-client FIFO is the ordering
// contract application correctness rests on.
func (e *engine) wbAdmitClient(k int, ci int32, tick int64) {
	c := e.c
	w := e.wb
	cl := c.clients[ci]
	q := w.queues[ci]
	// Pop batches fully applied in earlier ticks.
	pop := 0
	for pop < len(q) && q[pop].Dead {
		pop++
	}
	if pop > 0 {
		n := copy(q, q[pop:])
		for j := n; j < len(q); j++ {
			q[j] = nil
		}
		q = q[:n]
	}
	// Journal the freshly flushable runs.
	if fn := w.flCount[ci]; fn > 0 {
		for _, fr := range w.runs[k][w.flStart[ci] : w.flStart[ci]+fn] {
			rank := fr.ent.Auth
			if !c.servers[rank].Up() {
				// The sync path would attempt the op against the down
				// rank and back off; the flush does the same, with the
				// ops staying buffered client-side.
				e.wbStallDown(cl, rank, tick)
				break
			}
			b := &mds.Batch{
				Client: int(ci), Rank: rank, N: int(fr.n),
				Round: -1, Since: fr.since, Ent: fr.ent,
			}
			c.servers[rank].Journal().Push(b)
			q = append(q, b)
			cl.MarkInflight(int(fr.n))
			c.rec.AddBatchFlush(int(fr.n), tick-fr.since)
			if c.bus.Enabled(obs.EvBatchFlush) {
				f := obs.AcquireF()
				f["client"], f["rank"], f["n"] = cl.ID, int(rank), int(fr.n)
				f["age"], f["depth"] = tick-fr.since, c.servers[rank].Journal().Depth()
				c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvBatchFlush, Fields: f})
			}
		}
	}
	w.queues[ci] = q
	if e.blocked[ci] {
		return
	}
	// Admission over the FIFO at group granularity.
	off := 0
	round := 0
	// Tokens this client charged for batches admitted this tick. When a
	// later batch blocks the client, the serve phase skips those earlier
	// batches too (a client's batches apply in order), so their tokens
	// must flow back to the bucket or they leak every tick the pattern
	// repeats — a contended tenant would pay full rate for zero service.
	tickAdm := 0
	refundBlocked := func() {
		if tn := c.tn; tn != nil && tickAdm > 0 {
			tn.Refund(cl.Tenant, tickAdm)
			tn.NoteStalled(cl.Tenant, tickAdm)
		}
	}
	for _, b := range q {
		op, ok := cl.PeekOp(off, tick)
		if !ok {
			break // cannot happen: journaled ops are queued
		}
		ent := resolveOp(c.part, op)
		if !c.servers[ent.Auth].Up() {
			// Authority sits on a down rank (orphan window): the batch
			// stays in its current live journal and the client backs
			// off, as a sync attempt against the dead rank would.
			e.wbStallDown(cl, ent.Auth, tick)
			refundBlocked()
			break
		}
		if ent.Auth != b.Rank {
			mds.MoveBatch(c.servers[b.Rank].Journal(), c.servers[ent.Auth].Journal(), b)
		}
		b.Ent = ent
		auth := c.servers[b.Rank]
		if c.migrator.IsFrozen(ent.Key) {
			auth.AddStalls(1)
			cl.Retain()
			e.blocked[ci] = true
			refundBlocked()
			break
		}
		// With tenant QoS on, the batch draws from its tenant's token
		// bucket before the rank pool (the sync engine's admit order).
		// Uncontended buckets grant everything, so the arithmetic below
		// collapses to the QoS-off form byte for byte.
		want := b.N
		grant := want
		if tn := c.tn; tn != nil {
			grant = tn.Take(cl.Tenant, want)
			if grant <= 0 {
				// Bucket dry: this batch is retained — the write-back
				// throttle. With earlier batches already holding quota,
				// stop admitting and let them serve; only a client with
				// nothing admitted takes the admission-cut stall.
				tn.NoteThrottled(cl.Tenant, want)
				if round > 0 {
					break
				}
				auth.AddStalls(1)
				cl.Retain()
				e.blocked[ci] = true
				break
			}
		}
		groups := (grant + w.batchSize - 1) / w.batchSize
		g := int(e.avail[b.Rank])
		if g > groups {
			g = groups
		}
		if g <= 0 {
			// Budget pool dry: the batch is retained in the journal —
			// the sync admission-cut stall, at batch granularity. With
			// quota in hand this is a pool stall, not a quota spend.
			if tn := c.tn; tn != nil {
				tn.Refund(cl.Tenant, grant)
				tn.NoteStalled(cl.Tenant, grant)
			}
			auth.AddStalls(1)
			cl.Retain()
			e.blocked[ci] = true
			refundBlocked()
			break
		}
		adm := g * w.batchSize
		if adm > grant {
			adm = grant
		}
		if tn := c.tn; tn != nil {
			if adm < grant {
				// Pool-capped below the bucket grant (adm < grant implies
				// g < groups): refund the uncovered tokens as SLO debt.
				tn.Refund(cl.Tenant, grant-adm)
				tn.NoteStalled(cl.Tenant, grant-adm)
			}
			tn.NoteAdmitted(cl.Tenant, adm)
			c.tnAdmittedTick += int64(adm)
			tickAdm += adm
			if grant < want {
				tn.NoteThrottled(cl.Tenant, want-grant)
			}
		}
		e.avail[b.Rank] -= int32(g)
		b.Adm = adm
		b.Round = round
		if len(w.byRank[b.Rank]) == 0 {
			w.touched = append(w.touched, int32(b.Rank))
		}
		w.byRank[b.Rank] = append(w.byRank[b.Rank], b)
		if round+1 > w.maxRound {
			w.maxRound = round + 1
		}
		if int32(round+1) > w.rankRounds[b.Rank] {
			w.rankRounds[b.Rank] = int32(round + 1)
		}
		round++
		if adm < b.N {
			break // partial admission: serve the prefix, stall there
		}
		off += b.N
	}
}

// wbStallDown applies the serial form of the engine's stall-down path:
// stall accounting on the down rank, capped-exponential client backoff,
// and the backoff-enter event.
func (e *engine) wbStallDown(cl *client.Client, rank namespace.MDSID, tick int64) {
	c := e.c
	c.servers[rank].AddStalls(1)
	c.stalledDown++
	cl.RetainBackoff(tick, rank)
	if c.bus.Enabled(obs.EvBackoffEnter) {
		c.bus.EmitPooled(backoffEnter(cl, tick))
	}
	e.blocked[cl.ID] = true
}

// wbScheduleRound collects the ranks with a batch admitted at round r,
// in ascending rank order (the applyBarrier order contract).
func (e *engine) wbScheduleRound(r int) {
	e.roundRanks = e.roundRanks[:0]
	for rank, mr := range e.wb.rankRounds {
		if int(mr) > r {
			e.roundRanks = append(e.roundRanks, rank)
		}
	}
}

// wbServeRank serves the rank's admitted batches for the current round,
// in admission order. Each client has at most one batch per round, so a
// lane is the sole writer of every client it touches this round.
func (e *engine) wbServeRank(rank int, tick, epoch int64) {
	c := e.c
	w := e.wb
	lane := e.lanes[rank]
	auth := c.servers[rank]
	for _, b := range w.byRank[rank] {
		if b.Round != w.round || b.Dead {
			continue
		}
		if e.blocked[b.Client] {
			continue // an earlier batch of this client stalled this tick
		}
		e.wbServeBatch(lane, auth, c.clients[b.Client], b, tick, epoch)
	}
}

// wbServeBatch applies the admitted prefix of one batch: budget per
// commit group, client-cache/forwarding work once per batch, trace and
// latency per op, heat per parent-directory run. An unapplied remainder
// stays journaled for the next tick.
func (e *engine) wbServeBatch(lane *rankLane, auth *mds.Server, cl *client.Client,
	b *mds.Batch, tick, epoch int64) {
	c := e.c
	w := e.wb
	entry := b.Ent
	applied, served, groups := 0, 0, 0
	groupLeft := 0
	headDone := false
	var runPar, runRep *namespace.Inode
	runN := 0
	freshN := int64(0)
	wrote := false
	status := execOK
	var downRank namespace.MDSID
	coll := auth.Collector()
	for applied < b.Adm {
		if groupLeft == 0 {
			if !auth.ConsumeGroupBudget() {
				// Cross-lane forward charges floored the budget under
				// the admission reservation; the remainder is retained.
				lane.noteStall(lane.rank)
				status = execStall
				break
			}
			groups++
			groupLeft = w.batchSize
		}
		groupLeft--
		op := cl.OpAt(0)
		target := op.Target
		fresh, raced := false, false
		if op.Kind == workload.OpCreate {
			// Probe-free create: no duplicate lookup here. The promise
			// is cheap (slab carve); the serial adoption barrier decides
			// duplicate names deterministically (AdoptOrExisting), and a
			// losing promise completes as a raced create next serve.
			in, err := lane.arena.NewFile(op.Parent, op.Name, op.Size)
			if err != nil {
				lane.racedN++
				raced = true
			} else {
				lane.creates = append(lane.creates, in)
				target, fresh = in, true
			}
		}
		if !raced {
			if !headDone {
				// Once per batch: the client-cache / forwarding work
				// the group commit amortizes across the whole run.
				cached, ok := cl.CacheLookup(entry.Key)
				if !ok || cached != entry.Auth {
					if status, downRank = e.relay(lane, target); status != execOK {
						if fresh {
							// The op is retained, so un-promise its
							// create: re-serving it must not find a
							// duplicate it raced against itself.
							lane.creates = lane.creates[:len(lane.creates)-1]
						}
						break
					}
					cl.CacheStore(entry.Key, entry.Auth)
				}
				headDone = true
			}
			if fresh {
				// A fresh inode is a first-ever visit by construction:
				// touch its epoch bit now, fold its trace counters into
				// the per-run RecordFreshRun below, and owe MarkVisited
				// to the barrier — no collector map probes on this path.
				wrote = true
				target.Hot.Touch(epoch)
				lane.visits = append(lane.visits, target)
			} else {
				// An existing inode: recorded at the barrier (see
				// rankLane.records).
				lane.records = append(lane.records, laneRecord{entry.Key, target})
			}
			if runN > 0 && target.Parent == runPar {
				runN++
				if fresh {
					freshN++
				}
			} else {
				if runN > 0 {
					// Creates in a wb run are exactly its fresh inodes
					// (probe-free promises), so reads = runN - freshN.
					auth.AddHeatRun(entry.Key, runRep, runN, runN-int(freshN))
					coll.RecordFreshRun(entry.Key, runPar, epoch, freshN)
					freshN = 0
				}
				runPar, runRep, runN = target.Parent, target, 1
				if fresh {
					freshN = 1
				}
			}
			served++
		}
		lane.complete(c.bus, cl, tick)
		applied++
		if c.cfg.DataPath && op.DataSize > 0 {
			cl.AddDebt(op.DataSize)
			lane.debtors = append(lane.debtors, int32(cl.ID))
			e.blocked[cl.ID] = true
			break
		}
	}
	if runN > 0 {
		auth.AddHeatRun(entry.Key, runRep, runN, runN-int(freshN))
		coll.RecordFreshRun(entry.Key, runPar, epoch, freshN)
	}
	if served > 0 {
		auth.AddOps(served)
		if lane.tnServed != nil {
			auth.AddTenantHeat(entry.Key, cl.Tenant, served)
		}
	}
	if wrote && c.lt != nil && c.lt.Has(entry.Key) {
		// The batch mutated a leased subtree: its read leases die at the
		// barrier (one revoke per batch is enough — revocation is
		// idempotent per key per tick).
		lane.revokes = append(lane.revokes, entry.Key)
	}
	if applied > 0 {
		auth.Journal().Commit(b, applied)
		lane.batchCommits++
		if c.bus.Enabled(obs.EvBatchCommit) {
			f := obs.AcquireF()
			f["rank"], f["client"], f["n"], f["groups"] = int(lane.rank), cl.ID, applied, groups
			lane.events = append(lane.events, obs.Event{Tick: tick, Type: obs.EvBatchCommit, Fields: f})
		}
	}
	switch {
	case status == execStallDown:
		lane.stallDown(c.bus, cl, downRank, tick)
		e.blocked[cl.ID] = true
	case status == execStall:
		cl.Retain()
		e.blocked[cl.ID] = true
	case applied == b.Adm && b.Adm < b.N:
		// Admission cut: the budget pool ran dry mid-batch; stall like
		// the sync engine stalled a client mid-credit.
		lane.noteStall(lane.rank)
		cl.Retain()
		e.blocked[cl.ID] = true
	}
}

// wbCrashRank drops the crashed rank's unapplied journal: every live
// batch in it re-queues the owning client's whole outstanding suffix
// (see wbRequeueFrom), then the journal resets. Called from CrashMDS,
// so requeue events interleave deterministically with the crash event.
// A no-op outside write-back mode.
func (e *engine) wbCrashRank(id namespace.MDSID, tick int64) {
	if e.wb == nil {
		return
	}
	j := e.c.servers[id].Journal()
	j.Each(func(b *mds.Batch) {
		e.wbRequeueFrom(b, tick)
	})
	j.Reset()
}

// wbRequeueFrom drops the owning client's outstanding batches from b
// onward — later batches on live ranks included, because the client
// queue must re-flush in order — returning their ops to the locally
// buffered state. Exactly-once is structural: the batch objects are
// discarded, and the ops never left the client queue.
func (e *engine) wbRequeueFrom(b *mds.Batch, tick int64) {
	c := e.c
	w := e.wb
	ci := b.Client
	q := w.queues[ci]
	idx := 0
	for idx < len(q) && q[idx] != b {
		idx++
	}
	if idx == len(q) {
		return // already requeued via an earlier batch's suffix
	}
	cl := c.clients[ci]
	for _, s := range q[idx:] {
		c.servers[s.Rank].Journal().Drop(s)
		cl.RequeueInflight(int64(s.N))
		c.rec.AddBatchRequeue()
		if c.bus.Enabled(obs.EvBatchRequeue) {
			f := obs.AcquireF()
			f["rank"], f["client"], f["n"] = int(s.Rank), ci, s.N
			c.bus.EmitPooled(obs.Event{Tick: tick, Type: obs.EvBatchRequeue, Fields: f})
		}
	}
	for i := idx; i < len(q); i++ {
		q[i] = nil
	}
	w.queues[ci] = q[:idx]
}
