package cluster

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestResolveCacheDifferential is the correctness contract of the
// version-cached authority resolution: every engine scenario, plus a
// shared-directory run that drives directory fragmentation (splits)
// rather than whole-dir migrations, must produce byte-identical CSVs
// and event traces with the cache enabled and disabled. The cache is a
// pure memo over Partition.GoverningEntry, invalidated by
// Partition.Version(); any stale-read bug shows up here as a diverging
// trace.
func TestResolveCacheDifferential(t *testing.T) {
	sharedDir := engineScenario{"shareddir", func(cfg *Config) func(*Cluster) {
		cfg.MDS = 16
		cfg.Clients = 24
		cfg.Seed = 11
		cfg.Workload = workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 4000})
		return nil
	}}
	for _, sc := range append(slices.Clip(engineScenarios), sharedDir) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var c *Cluster
			cached := runEngineDiff(t, 1, func(cfg *Config) func(*Cluster) {
				after := sc.scenario(cfg)
				return func(built *Cluster) {
					c = built
					if after != nil {
						after(built)
					}
				}
			})
			if c.Metrics().MigratedTotal() == 0 {
				t.Fatal("scenario produced no migrations; the cache was never invalidated by an export")
			}
			uncached := runEngineDiff(t, 1, func(cfg *Config) func(*Cluster) {
				after := sc.scenario(cfg)
				cfg.uncachedResolve = true
				return after
			})
			diffEngineOutputs(t, sc.name+"/uncached", cached, uncached)
		})
	}
}
