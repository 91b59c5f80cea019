package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/workload"
)

func init() {
	register("table1", "Table 1: workload characteristics (metadata-op ratios)", runTable1)
	register("fig2", "Figure 2: per-MDS request distribution under the built-in balancer", runFig2)
	register("fig3", "Figure 3: per-MDS throughput over time (Vanilla, Zipf & CNN)", runFig3)
	register("fig4", "Figure 4: cumulative migrated inodes (Vanilla, Zipf & CNN)", runFig4)
	register("fig6", "Figure 6: imbalance factor per workload and balancer", runFig6)
	register("fig7", "Figure 7: metadata throughput per workload and balancer", runFig7)
	register("fig8", "Figure 8: end-to-end job completion time with data access", runFig8)
}

// runTable1 measures each generator's op mix and namespace shape, the
// reproduction of Table 1.
func runTable1(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"workload", "meta-op ratio", "paper", "files", "dirs", "ops/client",
	}}}
	paper := map[string]float64{"CNN": 0.781, "NLP": 0.928, "Web": 0.572, "Zipf": 0.50, "MD": 1.00}
	for _, name := range WorkloadNames {
		gen := MakeWorkload(name, opt.Scale)
		tree := namespace.NewTree()
		specs, err := gen.Setup(tree, 2, rng.New(opt.Seed))
		if err != nil {
			return nil, err
		}
		stats := workload.Measure(specs[0].Stream)
		files, dirs := 0, 0
		tree.Walk(func(in *namespace.Inode) bool {
			if in.IsDir {
				dirs++
			} else {
				files++
			}
			return true
		})
		res.Table.Add(name, f3(stats.Ratio()), f3(paper[name]),
			fmt.Sprint(files), fmt.Sprint(dirs), fmt.Sprint(stats.MetaOps))
		res.val(name+".ratio", stats.Ratio())
		res.val(name+".paper", paper[name])
	}
	res.Notes = append(res.Notes,
		"ratios are structural properties of the generators and should match the paper within a few percent")
	return res, nil
}

// runFig2 reruns the motivation study: the five workloads under the
// CephFS built-in balancer, reporting each MDS's share of all requests.
func runFig2(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"workload", "MDS-1", "MDS-2", "MDS-3", "MDS-4", "MDS-5", "max/min",
	}}}
	for _, name := range WorkloadNames {
		c, err := runOne(opt, cluster.Config{
			Balancer: MakeBalancer("Vanilla"),
			Workload: MakeWorkload(name, opt.Scale),
		})
		if err != nil {
			return nil, err
		}
		share := c.Metrics().ShareOfRequests()
		minS, maxS := share[0], share[0]
		row := []string{name}
		for _, s := range share {
			row = append(row, pct(s))
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		ratio := 0.0
		if minS > 0 {
			ratio = maxS / minS
		}
		row = append(row, f1(ratio))
		res.Table.Add(row...)
		res.val(name+".maxShare", maxS)
		res.val(name+".maxMin", ratio)
	}
	res.Notes = append(res.Notes,
		"the paper observes shares as skewed as 90.3% on one MDS (CNN) and max/min ratios of 22-220x")
	return res, nil
}

// runFig3 records the per-MDS instantaneous throughput under Vanilla
// for the two workloads the paper plots.
func runFig3(opt Options) (*Result, error) {
	res := &Result{}
	for _, name := range []string{"Zipf", "CNN"} {
		c, err := runOne(opt, cluster.Config{
			Balancer: MakeBalancer("Vanilla"),
			Workload: MakeWorkload(name, opt.Scale),
		})
		if err != nil {
			return nil, err
		}
		rec := c.Metrics()
		for i, s := range rec.PerMDS {
			res.Series = append(res.Series, NamedSeries{
				Name:   fmt.Sprintf("%s MDS-%d IOPS", name, i+1),
				Points: metrics.FormatSeries(s, 10),
			})
			res.val(fmt.Sprintf("%s.mds%d.mean", name, i+1), s.MeanValue())
		}
	}
	res.Notes = append(res.Notes,
		"the paper's counterpart shows ping-pong load swaps (Zipf) and a single active MDS (CNN)")
	return res, nil
}

// runFig4 records the cumulative migrated-inode counts under Vanilla.
func runFig4(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"workload", "migrated inodes", "namespace inodes", "ratio",
	}}}
	for _, name := range []string{"Zipf", "CNN"} {
		c, err := runOne(opt, cluster.Config{
			Balancer: MakeBalancer("Vanilla"),
			Workload: MakeWorkload(name, opt.Scale),
		})
		if err != nil {
			return nil, err
		}
		rec := c.Metrics()
		migr := rec.MigratedTotal()
		total := float64(c.Tree().NumInodes())
		res.Series = append(res.Series, NamedSeries{
			Name:   name + " cumulative migrated",
			Points: metrics.FormatSeries(&rec.Migrated, 10),
		})
		res.Table.Add(name, fi(migr), fi(total), f2(migr/total))
		res.val(name+".migrated", migr)
		res.val(name+".ratio", migr/total)
	}
	res.Notes = append(res.Notes,
		"Vanilla migrates the namespace repeatedly (ratio >> 1): over-migration and invalid candidate selection")
	return res, nil
}

// singleGrid runs the 5-workload x 4-balancer grid and hands each
// recorder to collect in deterministic (workload, balancer) order.
// The simulations are independent and individually deterministic, so
// they fan out across cores; only the collection is serialized.
func singleGrid(opt Options, collect func(workload, bal string, c *cluster.Cluster)) error {
	type cell struct {
		w, b string
		c    *cluster.Cluster
		err  error
	}
	var cells []*cell
	for _, w := range WorkloadNames {
		for _, b := range BalancerNames {
			cells = append(cells, &cell{w: w, b: b})
		}
	}
	workers := runtime.NumCPU()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan *cell)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cl := range jobs {
				cl.c, cl.err = runOne(opt, cluster.Config{
					Balancer: MakeBalancer(cl.b),
					Workload: MakeWorkload(cl.w, opt.Scale),
				})
			}
		}()
	}
	for _, cl := range cells {
		jobs <- cl
	}
	close(jobs)
	wg.Wait()
	for _, cl := range cells {
		if cl.err != nil {
			return cl.err
		}
		collect(cl.w, cl.b, cl.c)
	}
	return nil
}

// runFig6 reproduces the imbalance-factor comparison.
func runFig6(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"workload", "balancer", "mean IF", "tail IF", "IF series",
	}}}
	err := singleGrid(opt, func(w, b string, c *cluster.Cluster) {
		rec := c.Metrics()
		res.Table.Add(w, b, f3(rec.MeanIF()), f3(rec.TailIF(10)),
			metrics.FormatSeries(&rec.IF, 8))
		res.val(w+"/"+b+".meanIF", rec.MeanIF())
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"expected shape: GreedySpill worst (IF toward 1), Vanilla poor on the scan workloads (CNN/NLP), Lunule lowest")
	return res, nil
}

// runFig7 reproduces the aggregate-throughput comparison.
func runFig7(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"workload", "balancer", "peak IOPS", "mean IOPS", "lat p99.9", "JCT p50", "JCT p99",
	}}}
	type key struct{ w, b string }
	means := map[key]float64{}
	err := singleGrid(opt, func(w, b string, c *cluster.Cluster) {
		rec := c.Metrics()
		jcts := rec.JCTQuantiles(0.5, 0.99) // one sort for both quantiles
		res.Table.Add(w, b, fi(rec.PeakThroughput(10)), fi(rec.MeanThroughput()),
			fi(rec.LatencyQuantile(0.999)),
			fi(jcts[0]), fi(jcts[1]))
		res.val(w+"/"+b+".peak", rec.PeakThroughput(10))
		res.val(w+"/"+b+".mean", rec.MeanThroughput())
		res.val(w+"/"+b+".jct50", jcts[0])
		res.val(w+"/"+b+".lat999", rec.LatencyQuantile(0.999))
		means[key{w, b}] = rec.MeanThroughput()
	})
	if err != nil {
		return nil, err
	}
	for _, w := range WorkloadNames {
		for _, b := range []string{"Vanilla", "GreedySpill", "Lunule-Light"} {
			if base := means[key{w, b}]; base > 0 {
				res.val(w+".lunule-vs-"+b, means[key{w, "Lunule"}]/base)
			}
		}
	}
	res.Notes = append(res.Notes,
		"paper: Lunule improves CNN throughput 2.81x over Vanilla, NLP 1.76x, and is at least on par elsewhere")
	return res, nil
}

// runFig8 enables the data path and measures end-to-end job completion
// for the four read workloads (MD excluded, as in the paper).
func runFig8(opt Options) (*Result, error) {
	res := &Result{Table: &metrics.Table{Header: []string{
		"workload", "balancer", "JCT p50", "JCT p99", "speedup p50",
	}}}
	for _, w := range []string{"CNN", "NLP", "Zipf", "Web"} {
		jct := map[string]float64{}
		for _, b := range []string{"Vanilla", "Lunule"} {
			c, err := runOne(opt, cluster.Config{
				Balancer: MakeBalancer(b),
				Workload: MakeWorkload(w, opt.Scale),
				DataPath: true,
				// A data pool (six OSDs) sized so the large-file
				// workloads brush against it once metadata is balanced:
				// the dilution effect Figure 8 measures.
				OSDBandwidth: 24 << 20,
			})
			if err != nil {
				return nil, err
			}
			rec := c.Metrics()
			jcts := rec.JCTQuantiles(0.5, 0.99) // one sort for both quantiles
			jct[b] = jcts[0]
			speed := ""
			if b == "Lunule" && jct[b] > 0 {
				speed = f2(jct["Vanilla"] / jct[b])
				res.val(w+".speedup", jct["Vanilla"]/jct[b])
			}
			res.Table.Add(w, b, fi(jcts[0]), fi(jcts[1]), speed)
			res.val(w+"/"+b+".jct50", jcts[0])
		}
	}
	res.Notes = append(res.Notes,
		"paper: 18.6-64.6% shorter completion for CNN/NLP/Zipf; Web gains are diluted by the data path")
	return res, nil
}
