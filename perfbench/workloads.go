package main

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// tickBudget is the simulated-tick budget of every job. Each workload
// finishes in a few hundred ticks; a run still going at the budget has
// stalled clients and counts every op as failed.
const tickBudget = 6000

// epochTicks is the balancing epoch, set explicitly so the step loop knows
// which steps close an epoch (and so run the balancer).
const epochTicks = 10

// benchWorkload is one finite job. build returns a fresh configuration
// for every run: the balancer and the subsystem managers are stateful.
// The balancer is returned separately so a run can read its counters.
// cells is how many seeds one invocation runs the job on (cellSeeds).
type benchWorkload struct {
	name  string
	cells int
	build func(seed uint64, scale float64) (cluster.Config, *core.Lunule, error)
}

// workloads are the benchmark's jobs. Every one runs at least 100
// clients (so JCT p90 has ten clients beyond it), closed-loop at the
// cluster's default 150 ops/tick, under the Lunule balancer. README.md
// records why each was chosen.
// Mixed-churn's runs are short and about one seed in ten drags on
// (README.md, Findings), so it runs on more cells.
var workloads = []benchWorkload{
	{name: "zipf-read", cells: 4, build: zipfRead},
	{name: "create-storm", cells: 4, build: createStorm},
	{name: "mixed-churn", cells: 8, build: mixedChurn},
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// sized scales a job dimension, never below one.
func sized(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// zipfRead is the paper's Filebench Zipfian read: every client reads
// its own private directory 80/20 on 8 ranks, with the sync engine and
// no subsystem attached.
func zipfRead(seed uint64, scale float64) (cluster.Config, *core.Lunule, error) {
	lun := core.NewDefault()
	return cluster.Config{
		MDS:        8,
		Clients:    128,
		EpochTicks: epochTicks,
		Seed:       seed,
		Balancer:   lun,
		Workload: workload.NewZipf(workload.ZipfConfig{
			OpsPerClient: sized(10000, scale),
		}),
	}, lun, nil
}

// Create-storm shape: the noisy experiment's QoS cell. The aggressor's
// offered load (160 x 150 ops/tick) is three times the 4-rank cluster's
// capacity; every tenant's bucket refills below its clients' demand,
// so all four tenants are throttled.
const (
	stormAggrClients   = 160
	stormAggrDirs      = 8
	stormVictimClients = 8
	stormVictims       = 3
	stormTenantRate    = 1000
)

// createStorm runs an aggressor tenant's shared-directory create storms
// beside three victim tenants (Zipf, MDtest, ReadStorm), all behind
// contended token buckets, with the sync engine.
func createStorm(seed uint64, scale float64) (cluster.Config, *core.Lunule, error) {
	pol := tenant.DefaultPolicy()
	pol.Rate, pol.Burst = stormTenantRate, stormTenantRate
	tn, err := tenant.NewManager(pol)
	if err != nil {
		return cluster.Config{}, nil, err
	}
	creates := sized(2000, scale)
	victimOps := sized(6000, scale)
	counts := []int{stormAggrClients}
	for v := 0; v < stormVictims; v++ {
		counts = append(counts, stormVictimClients)
	}
	gen := workload.NewTenants(workload.TenantsConfig{Counts: counts},
		func(t, clients, off int) workload.Generator {
			if t == 0 {
				per := clients / stormAggrDirs
				gens := make([]workload.Generator, stormAggrDirs)
				for d := range gens {
					gens[d] = workload.NewMDShared(workload.MDSharedConfig{
						Dir:              fmt.Sprintf("/storm/dir%d", d),
						ClientOffset:     off + d*per,
						CreatesPerClient: creates,
					})
				}
				return workload.NewMixed(gens...)
			}
			dir := fmt.Sprintf("/victim%d", t)
			switch t % 3 {
			case 1:
				return workload.NewZipf(workload.ZipfConfig{
					Dir: dir + "/zipf", ClientOffset: off, OpsPerClient: victimOps})
			case 2:
				return workload.NewMD(workload.MDConfig{
					Dir: dir + "/md", ClientOffset: off, CreatesPerClient: victimOps})
			default:
				return workload.NewReadStorm(workload.ReadStormConfig{
					Dir: dir + "/storm", ClientOffset: off, WriteEvery: 50,
					OpsPerClient: victimOps})
			}
		})
	lun := core.NewDefault()
	return cluster.Config{
		MDS:        4,
		Clients:    stormAggrClients + stormVictims*stormVictimClients,
		EpochTicks: epochTicks,
		Seed:       seed,
		Balancer:   lun,
		Workload:   gen,
		Tenancy:    tn,
	}, lun, nil
}

// Mixed-churn shape. The starting fleet's nominal capacity (4 x 2000
// ops/tick) is below the clients' demand (112 x 150), so the autoscaler
// grows it. Partial write-back batches wait up to churnFlushTicks: that
// wait, not queueing, sets the op latency tail, which keeps
// op_lat_p99_ticks well clear of one-tick quantisation across seeds.
const (
	churnRanks      = 4
	churnClients    = 112
	churnMTBF       = 600
	churnBatch      = 8
	churnFlushTicks = 32
)

// mixedChurn is the paper's Mixed workload (CNN and NLP scans, Web,
// Zipf) with write-back batching, R=2 warm standbys with read leases,
// seeded MTBF crashes and the elastic autoscaler, on the parallel
// engine at two workers.
func mixedChurn(seed uint64, scale float64) (cluster.Config, *core.Lunule, error) {
	rp := replica.DefaultPolicy()
	rp.LeaseTicks = 40
	rp.ReplicateReadFrac = 0.75
	rep, err := replica.NewManager(rp)
	if err != nil {
		return cluster.Config{}, nil, err
	}
	ep := elastic.DefaultPolicy()
	ep.MinRanks, ep.MaxRanks = churnRanks, 2*churnRanks
	ctl, err := elastic.NewController(ep)
	if err != nil {
		return cluster.Config{}, nil, err
	}
	faults := fault.MTBF(fault.MTBFConfig{
		Ranks:   churnRanks,
		MTBF:    churnMTBF,
		Horizon: tickBudget,
	}, rng.New(seed).Fork(99))
	if err := faults.Validate(churnRanks); err != nil {
		return cluster.Config{}, nil, err
	}
	gen := workload.NewMixed(
		workload.NewCNN(workload.CNNConfig{Dirs: 300, FilesPerDir: sized(12, scale)}),
		workload.NewNLP(workload.NLPConfig{FilesPerDir: sized(140, scale)}),
		workload.NewWeb(workload.WebConfig{
			Files: sized(4500, scale), RequestsPerClient: sized(7000, scale)}),
		workload.NewZipf(workload.ZipfConfig{OpsPerClient: sized(14000, scale)}),
	)
	lun := core.NewDefault()
	return cluster.Config{
		MDS:         churnRanks,
		Clients:     churnClients,
		EpochTicks:  epochTicks,
		Seed:        seed,
		Workers:     min(2, runtime.NumCPU()),
		Balancer:    lun,
		Workload:    gen,
		Faults:      &faults,
		Elastic:     ctl,
		Replication: rep,
		Batching:    &cluster.BatchingConfig{BatchSize: churnBatch, FlushEvery: churnFlushTicks},
	}, lun, nil
}
