// Command lunule-trace analyzes a workload's operation stream the way
// the pattern analyzer sees it: op-kind mix, metadata ratio, and the
// per-window locality signature (recurrent-visit ratio alpha,
// first-visit ratio beta) of the whole stream. Use it to understand
// why a workload favours temporal- or spatial-locality balancing
// before running full simulations.
//
//	lunule-trace -workload cnn
//	lunule-trace -workload zipf -clients 4 -windowops 2000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/namespace"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "Zipf", "workload: CNN, NLP, Web, Zipf, MD, Mixed, ReadStorm")
		clients   = flag.Int("clients", 4, "number of client streams to interleave")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Uint64("seed", 42, "random seed")
		windowOps = flag.Int("windowops", 4000, "accesses per cutting window")
		windows   = flag.Int("windows", 12, "number of windows to report")
		export    = flag.String("export", "", "write the workload's op streams to this trace file and exit (replayable via lunule-sim -tracefile)")
	)
	flag.Parse()

	name, err := experiment.WorkloadName(*wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	gen := experiment.MakeWorkload(name, *scale)
	tree := namespace.NewTree()
	specs, err := gen.Setup(tree, *clients, rng.New(*seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := workload.WriteTrace(f, specs); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d clients)\n", *export, *clients)
		return
	}

	// Interleave the client streams round-robin, the way concurrent
	// clients hit the metadata service.
	streams := make([]workload.Stream, len(specs))
	for i, sp := range specs {
		streams[i] = sp.Stream
	}

	col := trace.NewCollector(*windows + 1)
	rootKey := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}

	kinds := map[workload.OpKind]int{}
	meta, data := 0, 0
	epoch := int64(0)
	inWindow := 0
	type sig struct{ alpha, beta float64 }
	var sigs []sig
	live := len(streams)

	flush := func() {
		c := col.RecentKey(rootKey, epoch, 1)
		var s sig
		if c.Distinct > 0 {
			s.alpha = float64(c.Recurrent) / float64(c.Distinct)
		}
		if c.Visits > 0 {
			s.beta = float64(c.FirstVisits) / float64(c.Visits)
		}
		sigs = append(sigs, s)
	}

	for live > 0 && len(sigs) < *windows {
		live = 0
		for _, s := range streams {
			op, ok := s.Next()
			if !ok {
				continue
			}
			live++
			kinds[op.Kind]++
			meta++
			if op.DataSize > 0 {
				data++
			}
			target := op.Target
			if op.Kind == workload.OpCreate {
				target = op.Parent.Child(op.Name)
				if target == nil {
					target, err = tree.Create(op.Parent, op.Name, op.Size)
					if err != nil {
						continue
					}
				}
			}
			col.Record(rootKey, target, epoch)
			inWindow++
			if inWindow >= *windowOps {
				flush()
				inWindow = 0
				epoch++
			}
		}
	}
	if inWindow > 0 && len(sigs) < *windows {
		flush()
	}

	fmt.Printf("workload %s, %d clients, %d ops analyzed\n\n", gen.Name(), *clients, meta)
	tbl := &metrics.Table{Header: []string{"op kind", "count", "share"}}
	for _, k := range []workload.OpKind{
		workload.OpLookup, workload.OpGetattr, workload.OpOpen,
		workload.OpReaddir, workload.OpCreate,
	} {
		if kinds[k] == 0 {
			continue
		}
		tbl.Add(k.String(), fmt.Sprint(kinds[k]),
			fmt.Sprintf("%.1f%%", 100*float64(kinds[k])/float64(meta)))
	}
	fmt.Print(tbl.String())
	fmt.Printf("\nmetadata-op ratio: %.3f (meta %d / data %d)\n\n",
		float64(meta)/float64(meta+data), meta, data)

	fmt.Printf("locality signature per window (%d ops each):\n", *windowOps)
	fmt.Printf("%-8s %-22s %-22s\n", "window", "alpha (recurrent)", "beta (first-visit)")
	for i, s := range sigs {
		fmt.Printf("%-8d %-22s %-22s\n", i,
			bar(s.alpha)+fmt.Sprintf(" %.2f", s.alpha),
			bar(s.beta)+fmt.Sprintf(" %.2f", s.beta))
	}
	fmt.Println("\nhigh alpha -> temporal locality (heat-based balancing works);")
	fmt.Println("high beta  -> spatial locality (scans/creates; Lunule's mIndex needed)")
}

func bar(v float64) string {
	n := int(v * 12)
	if n < 0 {
		n = 0
	}
	if n > 12 {
		n = 12
	}
	out := make([]byte, 12)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
