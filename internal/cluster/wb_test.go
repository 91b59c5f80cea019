package cluster

import (
	"bytes"
	"testing"

	"repro/internal/audit"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/workload"
)

// mdCreateHeavy is the MDtest-style create-heavy workload the
// write-back tests run: private per-client directory trees with an
// interleaved stat every 64 creates.
func mdCreateHeavy(n int) workload.Generator {
	return workload.NewMD(workload.MDConfig{
		CreatesPerClient: n,
		DirsPerClient:    4,
		StatEvery:        64,
	})
}

// TestWriteBackDegenerateMatchesSync is the write-back mode's anchor
// differential: BatchSize=1, FlushEvery=1 must produce byte-identical
// output (tick CSV, epoch CSV, JSONL trace) to a run with no batching
// configured at all, at every worker count. The degenerate setting is
// DEFINED to run the synchronous path verbatim; this test pins that
// equivalence so a future write-back change cannot quietly claim the
// {1,1} regime.
func TestWriteBackDegenerateMatchesSync(t *testing.T) {
	sync := engineScenarios[0].scenario // failover: crashes + recoveries
	degen := func(cfg *Config) func(*Cluster) {
		after := sync(cfg)
		cfg.Batching = &BatchingConfig{BatchSize: 1, FlushEvery: 1}
		return after
	}
	base := runEngineDiff(t, engineWorkerCounts[0], sync)
	for _, w := range engineWorkerCounts {
		got := runEngineDiff(t, w, degen)
		diffEngineOutputs(t, "degenerate/workers="+string(rune('0'+w)), base, got)
	}
}

// TestWriteBackMDtestAuditClean runs the create-heavy MDtest workload
// in write-back mode under the every-tick auditor (which now checks the
// in-flight/journal balance) and sanity-checks the batching metrics:
// batches actually flushed and committed, with a mean size the
// amortization claim rests on, and nothing left in flight at the end.
func TestWriteBackMDtestAuditClean(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:      4,
		Clients:  16,
		Seed:     11,
		Workload: mdCreateHeavy(800),
		Batching: &BatchingConfig{BatchSize: 32, FlushEvery: 8},
		Audit:    aud,
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	rec := c.Metrics()
	if rec.BatchFlushes() == 0 || rec.BatchCommits() == 0 {
		t.Fatalf("write-back run must flush and commit batches, got flushes=%d commits=%d",
			rec.BatchFlushes(), rec.BatchCommits())
	}
	if m := rec.MeanBatchSize(); m <= 1 {
		t.Fatalf("mean batch size %g: batching never formed a real batch", m)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Fatalf("client %d finished with %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	if c.racedCreates != 0 {
		t.Fatalf("MD names are client-unique; %d raced creates mean an op applied twice",
			c.racedCreates)
	}
}

// TestWriteBackCrashRequeuesExactlyOnce crashes the rank holding the
// deepest unapplied group-commit journal mid-run (capacity is throttled
// so journals stay deep) and checks the replay-or-drop contract:
// the dead journal empties at the crash, the dropped batches re-queue
// client-side, the every-tick auditor stays clean through takeover, and
// the job still finishes with zero raced creates — an op applied before
// the crash and re-queued after it would surface as a duplicate create
// of a client-unique name.
func TestWriteBackCrashRequeuesExactlyOnce(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	// A budget unit admits a whole commit group (up to BatchSize ops),
	// so retention needs demand above Capacity*BatchSize per rank:
	// 16 clients * 150 ops/tick against 4*8 groups of 32 keeps the
	// journals deep.
	c := newTestCluster(t, Config{
		MDS:           4,
		Clients:       16,
		Seed:          11,
		Capacity:      8,
		RecoveryTicks: 12,
		Workload:      mdCreateHeavy(600),
		Batching:      &BatchingConfig{BatchSize: 32, FlushEvery: 8},
		Audit:         aud,
	})
	c.Run(20)
	victim, deepest := -1, int64(0)
	for i, s := range c.Servers() {
		if ops := s.Journal().Ops(); s.Up() && ops > deepest {
			victim, deepest = i, ops
		}
	}
	if victim < 0 {
		t.Fatal("scenario must leave an unapplied journal to crash")
	}
	if !c.CrashMDS(victim) {
		t.Fatal("crash refused")
	}
	if ops := c.Servers()[victim].Journal().Ops(); ops != 0 {
		t.Fatalf("crashed rank still holds %d journaled ops", ops)
	}
	if c.Metrics().BatchRequeues() == 0 {
		t.Fatal("crashing a rank with an unapplied journal must re-queue batches")
	}
	c.RunUntilDone(40000)
	if !c.Done() {
		t.Fatal("clients must finish after the crash")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Fatalf("client %d finished with %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	if c.racedCreates != 0 {
		t.Fatalf("%d raced creates: a re-queued batch re-applied a create", c.racedCreates)
	}
}

// TestWriteBackChurnWithReplication runs write-back MDtest under MTBF-
// style churn with warm-standby replication: every crash both drops
// that rank's journal (re-queues) and races the standby promotion. The
// every-tick auditor holding through that interaction is the test. The
// schedule keeps at most one of the four ranks down at a time (an MTBF
// 150 / MTTR 50 draw over 1500 ticks with such a bound).
func TestWriteBackChurnWithReplication(t *testing.T) {
	var sched fault.Schedule
	sched.Crash(4, 0).Recover(171, 0).
		Crash(174, 3).Recover(484, 3).
		Crash(518, 1).Recover(574, 1).
		Crash(656, 0).Recover(718, 0).
		Crash(746, 2).Recover(797, 2).
		Crash(869, 1).Recover(918, 1).
		Crash(926, 3).Recover(968, 3).
		Crash(1163, 1).Recover(1307, 1).
		Crash(1384, 1).Recover(1386, 1).
		Crash(1430, 1).Recover(1453, 1).
		Crash(1490, 1).Recover(1499, 1)
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           4,
		Clients:       16,
		Seed:          11,
		RecoveryTicks: 25,
		Faults:        &sched,
		Workload:      mdCreateHeavy(400),
		Batching:      &BatchingConfig{BatchSize: 16, FlushEvery: 4},
		Replication:   replica.MustManager(replica.DefaultPolicy()),
		Audit:         aud,
	})
	c.RunUntilDone(40000)
	if !c.Done() {
		t.Fatal("clients must finish through the churn")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Fatalf("client %d finished with %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	if c.racedCreates != 0 {
		t.Fatalf("%d raced creates under churn: some batch re-applied", c.racedCreates)
	}
}

// TestWriteBackStaleBatchSingleWriter runs the first 80 ticks of a
// mixed-churn cell (the paper's Mixed workload with write-back, leased
// R=2 standbys, MTBF crashes and autoscaling; seed 3). In it the
// partition changes under a journaled batch whose ops span both halves
// of a split directory. Admission re-resolves only the batch's first
// op, so the batch's lane serves inodes that the other half's
// authority serves in the same round. Their per-inode access state
// must still have a single writer: under -race the detector is the
// oracle, and at every worker count the run must be byte-identical to
// the inline one.
func TestWriteBackStaleBatchSingleWriter(t *testing.T) {
	run := func(workers int) []byte {
		const seed = 3
		rp := replica.DefaultPolicy()
		rp.LeaseTicks = 40
		rp.ReplicateReadFrac = 0.75
		ep := elastic.DefaultPolicy()
		ep.MinRanks, ep.MaxRanks = 4, 8
		faults := fault.MTBF(fault.MTBFConfig{Ranks: 4, MTBF: 600, Horizon: 6000},
			rng.New(seed).Fork(99))
		c := newTestCluster(t, Config{
			MDS:         4,
			Clients:     112,
			EpochTicks:  10,
			Seed:        seed,
			Workers:     workers,
			Faults:      &faults,
			Elastic:     elastic.MustController(ep),
			Replication: replica.MustManager(rp),
			Batching:    &BatchingConfig{BatchSize: 8, FlushEvery: 32},
			Workload: workload.NewMixed(
				workload.NewCNN(workload.CNNConfig{Dirs: 300, FilesPerDir: 12}),
				workload.NewNLP(workload.NLPConfig{FilesPerDir: 140}),
				workload.NewWeb(workload.WebConfig{Files: 4500, RequestsPerClient: 7000}),
				workload.NewZipf(workload.ZipfConfig{OpsPerClient: 14000}),
			),
		})
		c.Run(80)
		var out bytes.Buffer
		if err := c.Metrics().WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := c.Metrics().WriteEpochCSV(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	base := run(1)
	for _, w := range engineWorkerCounts[1:] {
		diffEngineOutputs(t, "workers="+string(rune('0'+w)), base, run(w))
	}
}
