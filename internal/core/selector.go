package core

import (
	"repro/internal/balancer"
	"repro/internal/namespace"
	"repro/internal/trace"
)

// The subtree selector's fixed parameters.
const (
	// tolerance is the acceptable relative mismatch between a pick's
	// migration index and the amount (the paper allows 10%).
	tolerance = 0.10
	// candidateLimit bounds candidate enumeration.
	candidateLimit = 128
	// maxFragSplits bounds repeated dirfrag splitting.
	maxFragSplits = 8
	// concentrationMin is the fraction of a region's migration index
	// its child directories must capture for the region to be refined
	// into them rather than fragment-split.
	concentrationMin = 0.7
	// maxPicks bounds how many subtrees one decision may export.
	maxPicks = 16
	// dustFraction drops candidates below this fraction of the amount.
	dustFraction = 0.05
)

// selCtx carries the per-call state.
type selCtx struct {
	v    balancer.View
	an   *Analyzer
	col  *trace.Collector
	part *namespace.Partition
	ex   namespace.MDSID
}

func (ctx *selCtx) dirLoad(d *namespace.Inode) float64 {
	return ctx.an.ForDir(ctx.col, ctx.v.Epoch(), d).MIndex
}

func (ctx *selCtx) keyLoad(k namespace.FragKey) float64 {
	return ctx.an.ForKey(ctx.col, ctx.v.Epoch(), ctx.part, k).MIndex
}

// childDirs lists the sub-directories inside a region that are not
// already subtree roots of their own.
func (ctx *selCtx) childDirs(dir *namespace.Inode, frag namespace.Frag) []*namespace.Inode {
	var out []*namespace.Inode
	for _, ch := range dir.ChildrenInFrag(frag) {
		if ch.IsDir && len(ctx.part.EntriesAt(ch.Ino)) == 0 {
			out = append(out, ch)
		}
	}
	return out
}

// Select implements the paper's subtree selection (§3.3/§4.1): given
// an exporter and a migration amount, it searches the exporter's
// namespace through three paths:
//
//  1. a single subtree whose migration index is within the tolerance
//     (10%) of the amount;
//  2. an over-large subtree split down to size — into descendant
//     directories when the load concentrates in them, or by dirfrag
//     splitting when the load (or the anticipated spatial load) is
//     spread across the subtree itself;
//  3. a minimal set of subtrees whose migration indices together
//     roughly meet the demand.
//
// Candidate enumeration descends into a subtree's child directories
// only when those children actually capture the subtree's migration
// index; a region whose predicted load is diffuse (a scan spreading
// over hundreds of directories) is kept whole so that path 2 can carve
// a hash fragment of it — which ships a representative slice of the
// not-yet-visited namespace, the behaviour that makes Lunule effective
// on scan workloads.
//
// Select returns the candidates to export so that their total migration
// index approximates amount (ops/sec). The analyzer must belong to the
// exporter (its collector classifies the exporter's recent traffic).
//
// A saturated exporter serves — and therefore observes — only a
// capacity-clipped slice of its true demand, so the amount (computed
// from served loads) is first converted into a fraction of the
// exporter's served load and then applied to the total enumerated
// migration index; this ships the right proportion of the demand
// rather than 'amount' worth of under-measured subtrees.
func Select(v balancer.View, an *Analyzer, exporter namespace.MDSID, amount float64) []balancer.Candidate {
	if amount <= 0 {
		return nil
	}
	ctx := &selCtx{
		v:    v,
		an:   an,
		col:  v.Server(exporter).Collector(),
		part: v.Partition(),
		ex:   exporter,
	}
	cands := enumerate(ctx, amount)
	if len(cands) == 0 {
		return nil
	}
	if served := v.Server(exporter).CurrentLoad(); served > 0 {
		frac := amount / served
		if frac > 1 {
			frac = 1
		}
		total := 0.0
		for _, c := range cands {
			total += c.Load
		}
		amount = frac * total
		if amount <= 0 {
			return nil
		}
	}
	tol := tolerance * amount

	// Path 1: one subtree that matches the amount within tolerance.
	bestIdx, bestDiff := -1, tol+1
	for i, c := range cands {
		diff := c.Load - amount
		if diff < 0 {
			diff = -diff
		}
		if diff <= tol && diff < bestDiff {
			bestIdx, bestDiff = i, diff
		}
	}
	if bestIdx >= 0 {
		return []balancer.Candidate{cands[bestIdx]}
	}

	// Path 2: the smallest over-large candidate, fragment-split toward
	// the amount. (Candidates whose load concentrates in child dirs
	// were already refined during enumeration, so an over-large
	// candidate here is split by hash fragments.)
	overIdx := -1
	for i, c := range cands {
		if c.Load > amount*(1+tolerance) {
			if overIdx == -1 || c.Load < cands[overIdx].Load {
				overIdx = i
			}
		}
	}
	if overIdx >= 0 {
		if c, ok := fragSplit(ctx, cands[overIdx], amount); ok {
			return []balancer.Candidate{c}
		}
	}

	// Path 3: a minimal set whose indices sum toward the amount. Stop
	// at subtrees too small to matter: shipping dust would freeze many
	// subtrees while moving no load.
	var out []balancer.Candidate
	remaining := amount
	for _, c := range cands {
		if c.Load < amount*dustFraction || remaining <= tol {
			break
		}
		if c.Load > remaining*(1+tolerance) {
			continue
		}
		out = append(out, c)
		remaining -= c.Load
		if len(out) >= maxPicks {
			break
		}
	}
	return out
}

// enumerate lists the exporter's movable candidates sorted by
// descending migration index, refining a region into its child
// directories only while the children capture at least
// concentrationMin of its migration index.
func enumerate(ctx *selCtx, amount float64) []balancer.Candidate {
	skip := ctx.v.Migrator().PendingFor(ctx.ex)
	tree := ctx.part.Tree()
	rootKey := namespace.FragKey{Dir: namespace.RootIno, Frag: namespace.WholeFrag}

	// Subtrees served (or about to be served) under read leases are
	// handled by replication, not migration (balancer.LeaseView).
	lv, _ := ctx.v.(balancer.LeaseView)

	// Subtrees hot because of an admission-throttled tenant stay put:
	// the noisy neighbour is contained by its token bucket where it
	// sits, and exporting its subtree would spread the over-quota load
	// (and whatever shares the subtree) across more ranks
	// (balancer.TenantView).
	tv, _ := ctx.v.(balancer.TenantView)

	var cands []balancer.Candidate
	for _, e := range ctx.part.EntriesOf(ctx.ex) {
		if skip[e.Key] || ctx.v.Migrator().IsFrozen(e.Key) {
			continue
		}
		if lv != nil && lv.ReadLeased(e.Key) {
			continue
		}
		if e.Key == rootKey {
			// The root entry aggregates every tenant's heat, so the
			// fairness skip below would freeze the entire namespace on
			// this rank the moment any tenant is throttled — innocent
			// subtrees included. Expand it unconditionally; once a child
			// is carved into its own entry it gets its own tenant
			// attribution and the skip applies at that granularity.
			for _, ch := range ctx.childDirs(tree.Root(), namespace.WholeFrag) {
				cands = append(cands, balancer.Candidate{Dir: ch, Load: ctx.dirLoad(ch)})
			}
			continue
		}
		if tv != nil && tv.TenantThrottled(e.Key) {
			continue
		}
		cands = append(cands, balancer.Candidate{Key: e.Key, IsEntry: true, Load: ctx.keyLoad(e.Key)})
	}

	for len(cands) < candidateLimit {
		best := -1
		var bestChildren []balancer.Candidate
		for i, c := range cands {
			if c.Load <= amount*(1+tolerance) {
				continue
			}
			var dir *namespace.Inode
			frag := namespace.WholeFrag
			if c.IsEntry {
				dir = tree.Get(c.Key.Dir)
				frag = c.Key.Frag
			} else {
				dir = c.Dir
			}
			if dir == nil {
				continue
			}
			children := ctx.childDirs(dir, frag)
			if len(children) == 0 {
				continue
			}
			sum := 0.0
			kids := make([]balancer.Candidate, 0, len(children))
			for _, ch := range children {
				l := ctx.dirLoad(ch)
				sum += l
				kids = append(kids, balancer.Candidate{Dir: ch, Load: l})
			}
			if sum < concentrationMin*c.Load {
				// Diffuse region: keep whole; path 2 will frag-split.
				continue
			}
			if best == -1 || c.Load > cands[best].Load {
				best = i
				bestChildren = kids
			}
		}
		if best == -1 {
			break
		}
		cands = append(cands[:best], cands[best+1:]...)
		cands = append(cands, bestChildren...)
	}

	sortCandidates(cands)
	return cands
}

func sortCandidates(cands []balancer.Candidate) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if a.Load > b.Load || (a.Load == b.Load && a.RootDir() <= b.RootDir()) {
				break
			}
			cands[j-1], cands[j] = b, a
		}
	}
}

// fragSplit converts the candidate into a partition entry and splits
// its directory fragment repeatedly until one side's estimated
// migration index is close to amount, returning that side. Each half's
// index is estimated from the child directories and files it covers
// (their own indices plus their unvisited share), so a hash slice of a
// scan region carries a representative share of both the live front
// and the not-yet-visited namespace.
func fragSplit(ctx *selCtx, c balancer.Candidate, amount float64) (balancer.Candidate, bool) {
	part := ctx.part
	tree := part.Tree()

	key := c.Key
	if !c.IsEntry {
		if c.Dir == nil || len(part.EntriesAt(c.Dir.Ino)) > 0 {
			return balancer.Candidate{}, false
		}
		key = part.Carve(c.Dir).Key
	}
	load := c.Load
	dir := tree.Get(key.Dir)
	if dir == nil {
		return balancer.Candidate{}, false
	}

	for i := 0; i < maxFragSplits && load > amount*(1+tolerance); i++ {
		if len(dir.ChildrenInFrag(key.Frag)) < 2 {
			break
		}
		left, right, ok := part.SplitEntry(key)
		if !ok {
			break
		}
		ll := ctx.keyLoad(left.Key)
		lr := ctx.keyLoad(right.Key)
		if ll+lr > 0 {
			// Re-apportion the parent's estimate by the halves' relative
			// indices (absolute re-evaluation loses the parent context).
			scale := load / (ll + lr)
			ll *= scale
			lr *= scale
		} else {
			ll, lr = load/2, load/2
		}
		if absF(ll-amount) <= absF(lr-amount) {
			key, load = left.Key, ll
		} else {
			key, load = right.Key, lr
		}
	}
	return balancer.Candidate{Key: key, IsEntry: true, Load: load}, true
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
