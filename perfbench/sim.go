package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// runKind selects how a run is instrumented. Every kind simulates the
// same job, so all three must produce the same digest.
type runKind int

const (
	timed   runKind = iota // untraced; gives the end-to-end metrics
	traced                 // layer wrappers on; gives the per-layer metrics
	audited                // state auditor attached; the reference run
)

func (k runKind) String() string {
	return [...]string{"timed", "traced", "audited"}[k]
}

// runResult is what one run measured. The cluster itself is dropped
// when the run returns, so the next run's heap starts clean.
type runResult struct {
	kind   runKind
	seed   uint64
	digest string
	err    error // a failed correctness check; all the run's ops fail

	issued, done int64
	ticks        int64   // simulated ticks the job took
	loopS        float64 // wall seconds of the step loop
	ops          float64 // simulated ops completed (Recorder.TotalOps)
	cpuS         float64 // process CPU seconds during the step loop
	heapPeak     uint64  // largest live heap sampled at an epoch close or the end
	rt           rtDelta // runtime counters over the step loop

	sim map[string]float64 // simulated outcomes and layer counts
	tr  *tracer
}

func (r *runResult) opsPerS() float64 { return r.ops / r.loopS }

// opsPerCPUS is the run's ops per second of process CPU time. The
// hypervisor's steal is not charged to the process, so on a shared host
// this rate moves far less between runs than opsPerS does.
func (r *runResult) opsPerCPUS() float64 { return r.ops / r.cpuS }

// setupCost is the time one cluster.New took.
type setupCost struct{ cpuS, wallS float64 }

// setUp builds the workload's cluster for seed, instrumented for kind
// (tr must be set for a traced run), and returns it with the time
// cluster.New took.
func setUp(w benchWorkload, seed uint64, scale float64, kind runKind, tr *tracer) (*cluster.Cluster, *core.Lunule, setupCost, error) {
	cfg, lun, err := w.build(seed, scale)
	if err != nil {
		return nil, nil, setupCost{}, fmt.Errorf("%s: build: %w", w.name, err)
	}
	switch kind {
	case traced:
		cfg.Workload = &tracedGen{inner: cfg.Workload, t: tr}
		cfg.Balancer = tr.wrapBalancer(cfg.Balancer)
	case audited:
		cfg.Audit = audit.New(audit.Options{})
	}
	runtime.GC()
	cpu0 := processCPU()
	start := time.Now()
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, setupCost{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return c, lun, setupCost{cpuS: processCPU() - cpu0, wallS: time.Since(start).Seconds()}, nil
}

// Set-up is short and noisy, so it is sampled on its own, cycling
// through the cells: at least twice per cell, and until setupSampleS
// seconds of it have been measured and every cell has as many samples
// as the others.
const (
	maxSetupSamples = 200
	setupSampleS    = 1.0
)

func setupSamples(w benchWorkload, seeds []uint64, scale float64) ([]setupCost, error) {
	var xs []setupCost
	total := 0.0
	for len(xs) < 2*len(seeds) || len(xs)%len(seeds) != 0 ||
		(total < setupSampleS && len(xs) < maxSetupSamples) {
		_, _, s, err := setUp(w, seeds[len(xs)%len(seeds)], scale, timed, nil)
		if err != nil {
			return nil, err
		}
		xs = append(xs, s)
		total += s.wallS
	}
	return xs, nil
}

// runOnce builds the workload's cluster for seed and drives Cluster.Step
// until every client is done or the tick budget runs out.
func runOnce(w benchWorkload, seed uint64, scale float64, kind runKind) (*runResult, error) {
	res := &runResult{kind: kind, seed: seed}
	if kind == traced {
		res.tr = newTracer()
	}
	c, lun, _, err := setUp(w, seed, scale, kind, res.tr)
	if err != nil {
		return nil, err
	}

	var heap [1]rtmetrics.Sample
	heap[0].Name = "/gc/heap/live:bytes"
	// A GC flushes the per-P caches, which makes the allocation counts
	// exact; it also starts the loop without set-up's garbage.
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	for c.Tick() < tickBudget && !c.Done() {
		tick := c.Tick()
		stepStart := time.Now()
		c.Step()
		if res.tr != nil {
			res.tr.endStep(tick, stepStart, time.Since(stepStart))
		}
		if (tick+1)%epochTicks == 0 {
			rtmetrics.Read(heap[:])
			res.heapPeak = max(res.heapPeak, heap[0].Value.Uint64())
		}
	}
	res.loopS = time.Since(start).Seconds()
	res.ticks = c.Tick()
	res.cpuS = processCPU() - cpu0
	res.rt = readRuntime().sub(rt0)
	// The live heap is only known at the end of a GC cycle, so a heap
	// that grew after the last cycle would be missed: collect once more
	// while the finished cluster is still live. The same GC makes the
	// allocation counts exact.
	runtime.GC()
	rtmetrics.Read(heap[:])
	res.heapPeak = max(res.heapPeak, heap[0].Value.Uint64())
	final := readRuntime().sub(rt0)
	res.rt.allocObjs, res.rt.allocBytes = final.allocObjs, final.allocBytes

	rec := c.Metrics()
	res.ops = rec.TotalOps()
	for _, cl := range c.Clients() {
		res.issued += cl.Issued()
		res.done += cl.OpsDone()
	}
	res.sim = collect(c, lun)
	res.digest = digest(c)
	res.err = check(c, res)
	if res.tr != nil {
		// The spans outlive the run; the streams, and the namespace
		// they point into, must not weigh on the next run's heap.
		for _, s := range res.tr.streams {
			s.inner = nil
		}
	}
	return res, nil
}

// check is the correctness gate every run passes: all clients done
// within the budget, ops conserved between clients and recorder, and a
// clean audit on the audited run.
func check(c *cluster.Cluster, r *runResult) error {
	if !c.Done() {
		return fmt.Errorf("%s run: clients still running at tick budget %d", r.kind, tickBudget)
	}
	if r.issued != r.done || float64(r.done) != r.ops {
		return fmt.Errorf("%s run: ops not conserved: issued %d, done %d, recorded %.0f",
			r.kind, r.issued, r.done, r.ops)
	}
	if r.kind == audited {
		if c.Auditor().Passes() == 0 {
			return fmt.Errorf("audited run: no audit pass ran")
		}
		if err := c.Auditor().Err(); err != nil {
			return fmt.Errorf("audited run: %w", err)
		}
	}
	return nil
}

// digest hashes a run's simulated output: the per-tick aggregate IOPS
// series, each client's done tick, and the migrator, replica and tenant
// counters. Runs of one workload and seed must agree on it whatever
// instrumentation is attached.
func digest(c *cluster.Cluster) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	rec := c.Metrics()
	for _, v := range rec.Agg.Values {
		put(int64(math.Float64bits(v)))
	}
	for _, cl := range c.Clients() {
		put(cl.DoneTick())
	}
	m := c.Migrator()
	put(m.SubmittedTasks(), m.CompletedTasks(), m.DroppedTasks(), m.AbortedTasks(), m.MigratedInodes())
	if rep := c.Replicas(); rep != nil {
		put(c.Promotions(), rep.ResyncsStarted(), rep.ResyncsDone(), rep.Records(),
			rep.LeasesGranted(), rep.LeasesRevoked(), rep.LeasesExpired(), c.LeaseServes())
	}
	if tn := c.Tenancy(); tn != nil {
		for t := 0; t < tn.N(); t++ {
			put(tn.Admitted(t), tn.Throttled(t), tn.Stalled(t))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// collect reads the simulated outcomes and the per-layer counts from
// the cluster's public getters after the run.
func collect(c *cluster.Cluster, lun *core.Lunule) map[string]float64 {
	rec := c.Metrics()
	jct := rec.JCTQuantiles(0.5, 0.9)
	m := c.Migrator()
	part := c.Partition()
	s := map[string]float64{
		"jct_p50_ticks":    jct[0],
		"jct_p90_ticks":    jct[1],
		"op_lat_p50_ticks": rec.LatencyQuantile(0.5),
		"op_lat_p99_ticks": rec.LatencyQuantile(0.99),
		"sim_iops":         rec.MeanThroughput(),

		"metrics.op_lat_capped_frac": cappedFrac(rec),

		"cluster.forwards":      rec.ForwardsTotal(),
		"cluster.wb_batches":    float64(rec.BatchCommits()),
		"cluster.wb_mean_batch": rec.MeanBatchSize(),
		"cluster.wb_requeued":   float64(rec.BatchRequeues()),

		"core.mean_if":    rec.MeanIF(),
		"core.rebalances": float64(lun.Rebalances()),

		"mds.exports_submitted": float64(m.SubmittedTasks()),
		"mds.export_done_frac":  ratio(float64(m.CompletedTasks()), float64(m.SubmittedTasks())),
		"mds.exports_aborted":   float64(m.AbortedTasks()),
		"mds.migrated_inodes":   float64(m.MigratedInodes()),

		"namespace.inodes":             float64(c.Tree().NumInodes()),
		"namespace.entries":            float64(part.NumEntries()),
		"namespace.partition_versions": float64(part.Version()),

		"elastic.scale_ups":   float64(c.ScaleUps()),
		"elastic.drains":      float64(c.DrainsDone()),
		"elastic.rank_epochs": float64(c.RankEpochs()),
	}
	var share, crashes float64
	for _, v := range rec.ShareOfRequests() {
		share = max(share, v)
	}
	for _, srv := range c.Servers() {
		crashes += float64(srv.Crashes())
	}
	s["mds.max_rank_share"], s["mds.crashes"] = share, crashes

	var retries, stalls float64
	for _, cl := range c.Clients() {
		retries += float64(cl.Retries())
		stalls += float64(cl.StallTicks())
	}
	s["client.retries"], s["client.stall_ticks"] = retries, stalls

	var admitted, throttled, victim float64
	if tn := c.Tenancy(); tn != nil {
		for t := 0; t < tn.N(); t++ {
			admitted += float64(tn.Admitted(t))
			throttled += float64(tn.Throttled(t))
			if t > 0 { // tenant 0 is the aggressor; the rest are victims
				victim = max(victim, rec.TenantJCTQuantile(t, 0.5))
			}
		}
	}
	s["tenant.admitted_ops"], s["tenant.throttled_ops"] = admitted, throttled
	s["tenant.admit_frac"] = ratio(admitted, admitted+throttled)
	s["tenant.victim_jct_p50_ticks"] = victim

	var promotions, resyncs, records, leases, serves float64
	if rep := c.Replicas(); rep != nil {
		promotions = float64(c.Promotions())
		resyncs = float64(rep.ResyncsDone())
		records = float64(rep.Records())
		leases = float64(rep.LeasesGranted())
		serves = float64(c.LeaseServes())
	}
	s["replica.promotions"], s["replica.resyncs_done"] = promotions, resyncs
	s["replica.journal_records"], s["replica.leases_granted"] = records, leases
	s["replica.lease_serve_frac"] = ratio(serves, rec.TotalOps())
	return s
}

// latencyCap is the top bucket of the recorder's latency histogram
// (metrics' maxLatencyBucket): an op slower than this reads as the cap.
const latencyCap = 256

// cappedFrac is the share of ops in the capped latency bucket, derived
// from LatencyQuantile: the smallest quantile that reads the cap,
// found by bisection, leaves that share above it.
func cappedFrac(rec *metrics.Recorder) float64 {
	if rec.LatencyQuantile(1) < latencyCap {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if rec.LatencyQuantile(mid) >= latencyCap {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 1 - hi
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtDelta holds runtime counters over an interval.
type rtDelta struct {
	allocObjs, allocBytes, gcCycles, gcCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == rtmetrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return rtDelta{
		allocObjs:  v(0),
		allocBytes: v(1),
		gcCycles:   v(2),
		gcCPU:      v(3),
	}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{
		allocObjs:  a.allocObjs - b.allocObjs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
