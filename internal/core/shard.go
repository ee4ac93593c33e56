package core

import (
	"sort"

	"mir/internal/celltree"
	"mir/internal/geom"
	"mir/internal/par"
	"mir/internal/topk"
)

// This file implements the space-sharded AA build: product space is
// pre-split into 2^j disjoint axis-aligned boxes and each box runs a
// fully independent AA — its own cell tree (rooted at the shard's
// virtual path ID), its own staging heap and frontier scheduler
// instance, its own per-worker scratch and LP workspaces, and a private
// stats accumulator. Shards share only the immutable instance. Before a
// shard's tree does any work its halfspace set is prescreened against
// the shard box with the banded corner bounds of topk.HalfspaceBands:
// a halfspace whose boundary provably misses the box is absorbed into
// the shard root's InCount/OutCount at O(d) cost, so a shard whose
// residual population can no longer reach m (or already covers m) dies
// — or reports whole — at the root without building anything. Shard
// regions concatenate in shard-ID order; stats merge order-free.

// effectiveShards resolves Options.Shards to the actual top-level shard
// count: the largest power of two <= Shards (the decomposition is a
// recursive bisection), or 1 when sharding is off.
func effectiveShards(opts Options) int {
	if opts.Shards <= 1 {
		return 1
	}
	n := 1
	for n*2 <= opts.Shards {
		n *= 2
	}
	return n
}

// shardBox is one top-level cell of the sharded decomposition. A shard
// build is a pure function of (instance, m, Options, shardBox).
type shardBox struct {
	lo, hi geom.Vector
	id     int // path-derived heap ID of the shard root (virtual splits)
	depth  int // bisection depth of this box in the virtual split tree
}

// planShards splits [0,1]^d into `shards` (a power of two) axis-aligned
// boxes by greedy heaviest-first bisection over a pilot work map: every
// cut bisects the box currently holding the most pilot work points, at
// the median work-point coordinate along the cycling axis, so shards
// end up with near-equal estimated work rather than near-equal volume —
// and a misjudged cut self-corrects, because the box that kept too much
// work simply gets cut again at a later step. Boxes are leaves of the
// resulting (generally uneven-depth) virtual bisection tree, enumerated
// in bisection-path order, and each carries the heap-numbered ID of its
// virtual tree node (lower child 2i+1, upper child 2i+2 from a virtual
// root 0), so shard-local cell IDs are globally unique and stable for a
// fixed shard count regardless of how shard or frontier work is
// scheduled.
//
// The work map is data-adaptive (pilotWorkPoints): mIR thresholds are
// top-k scores, so the arrangement's cells concentrate in a thin shell
// around the m-level surface of the in-count function near the top
// corner of product space, with density varying by orders of magnitude
// along the surface. Fixed midpoint cuts carve only dead space (one
// shard inherits the entire shell, the rest die at their roots), and
// geometric surface probes misjudge the density, so the cells of a
// cheap pilot AA over a deterministic user subsample serve as the work
// estimate instead — the pilot spends its cells exactly where the full
// build will. The pilot and every cut depend only on the instance, m,
// and the shard count, never on Workers or scheduling, so the
// per-shard-count determinism contract is untouched.
func planShards(inst *Instance, m, shards int) []shardBox {
	dim := inst.Dim
	lo := make(geom.Vector, dim)
	hi := make(geom.Vector, dim)
	for j := range hi {
		hi[j] = 1
	}
	type node struct {
		box shardBox
		pts []geom.Vector
	}
	nodes := []node{{box: shardBox{lo: lo, hi: hi}, pts: pilotWorkPoints(inst, m)}}
	for len(nodes) < shards {
		// Heaviest box next; ties break to the lowest index so the greedy
		// order — and with it the decomposition — is deterministic.
		h := 0
		for i := range nodes {
			if len(nodes[i].pts) > len(nodes[h].pts) {
				h = i
			}
		}
		n := nodes[h]
		b := n.box
		axis := b.depth % dim
		mid := splitCoord(n.pts, b.lo, b.hi, axis)
		lowHi := append(geom.Vector(nil), b.hi...)
		lowHi[axis] = mid
		highLo := append(geom.Vector(nil), b.lo...)
		highLo[axis] = mid
		low := node{box: shardBox{lo: b.lo, hi: lowHi, id: 2*b.id + 1, depth: b.depth + 1}}
		high := node{box: shardBox{lo: highLo, hi: b.hi, id: 2*b.id + 2, depth: b.depth + 1}}
		for _, p := range n.pts {
			if p[axis] < mid {
				low.pts = append(low.pts, p)
			} else {
				high.pts = append(high.pts, p)
			}
		}
		// Replace the parent with its children in place: the box list stays
		// in bisection-path (in-order) order.
		nodes = append(nodes[:h], append([]node{low, high}, nodes[h+1:]...)...)
	}
	boxes := make([]shardBox, len(nodes))
	for i, n := range nodes {
		boxes[i] = n.box
	}
	return boxes
}

// splitCoord picks the coordinate for bisecting [lo, hi] along axis: the
// median of the work points' axis coordinates (halving the estimated
// work), taken between the two middle points. Falls back to the box
// midpoint when there are too few points to estimate from — the box is
// all dead space, so any cut is as good as another — or when the median
// degenerates onto a face, where a cut would create an empty shard.
func splitCoord(pts []geom.Vector, lo, hi geom.Vector, axis int) float64 {
	if len(pts) < 2 {
		return (lo[axis] + hi[axis]) / 2
	}
	vs := make([]float64, len(pts))
	for i, p := range pts {
		vs[i] = p[axis]
	}
	sort.Float64s(vs)
	med := (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
	if med <= lo[axis]+geom.ClassifyTol || med >= hi[axis]-geom.ClassifyTol {
		return (lo[axis] + hi[axis]) / 2
	}
	return med
}

// pilotStride is the user-subsampling stride of the pilot AA: every
// pilotStride-th user enters the pilot, and m scales by the same factor,
// so the pilot's m-level surface tracks the full instance's while its
// arrangement stays a small fraction of the full build's cost.
const pilotStride = 4

// pilotWorkPoints runs the pilot AA and returns the centers of its
// reported cells as the work map for the shard decomposition. The pilot
// is built from a deterministic user subsample with a strictly
// sequential preprocessing and a single-tree, single-worker AA, so the
// map — and with it the decomposition — is a pure function of the
// instance and m. The pilot skips the layered product index (its
// skyband scan over a handful of users is cheaper than a second index
// build) and its counters are planning effort, deliberately left out of
// the merged region's arrangement stats. Returns nil when the instance
// is too small to subsample; the decomposition then falls back to
// midpoint cuts.
func pilotWorkPoints(inst *Instance, m int) []geom.Vector {
	nU := len(inst.Users)
	if nU < 2*pilotStride {
		return nil
	}
	users := make([]topk.UserPref, 0, (nU+pilotStride-1)/pilotStride)
	for i := 0; i < nU; i += pilotStride {
		users = append(users, inst.Users[i])
	}
	pm := (m*len(users) + nU/2) / nU
	if pm < 1 {
		pm = 1
	}
	if pm > len(users) {
		pm = len(users)
	}
	pilot, err := NewInstanceOpts(inst.Products, users, Options{Workers: 1, DisableTopKIndex: true})
	if err != nil {
		return nil
	}
	run, err := runAA(pilot, pm, Options{Workers: 1})
	if err != nil {
		return nil
	}
	reg := run.region()
	pts := make([]geom.Vector, len(reg.MBBs))
	for i, mbb := range reg.MBBs {
		c := make(geom.Vector, len(mbb[0]))
		for j := range c {
			c[j] = (mbb[0][j] + mbb[1][j]) / 2
		}
		pts[i] = c
	}
	return pts
}

// aaSharded is the sharded counterpart of runAA + region: it plans the
// shard boxes, runs one independent AA per box (concurrently when
// Workers allows — each run still spins its own frontier for
// Workers > 1), and concatenates the shard regions in shard-ID order.
// Only modeMIR ever reaches this path: max-coverage and min-cost runs
// prune against run-global incumbents and stay single-tree, as do
// maintained runs (NewMaintainer calls runAA).
//
// Every stat merge is a sum except MaxFrontier (maximum), so the merged
// totals do not depend on shard completion order. The instance-wide
// preprocessing effort is charged once to the merged region, never per
// shard.
func aaSharded(inst *Instance, m int, opts Options, shards int) (*Region, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	boxes := planShards(inst, m, shards)
	frags := make([]*Region, shards)
	par.For(shards, par.Resolve(opts.Workers), func(s int) {
		frags[s] = runShard(inst, m, opts, boxes[s])
	})
	merged := &Region{Dim: inst.Dim, M: m, Stats: inst.prepStats(), ShardCells: make([]int, shards)}
	for s, reg := range frags {
		merged.Cells = append(merged.Cells, reg.Cells...)
		merged.MBBs = append(merged.MBBs, reg.MBBs...)
		merged.ShardCells[s] = reg.Stats.Cells
		merged.Stats.merge(reg.Stats)
		merged.Sched = mergeSched(merged.Sched, reg.Sched)
	}
	return merged, nil
}

// runShard executes one fully independent AA over a shard box. Every
// user halfspace is first classified against the box with the banded
// corner bounds (topk.HalfspaceBands); only the Cuts survivors enter
// the root's pending views, the rest are absorbed into its counts. The
// shard's Stats leave out the preprocessing counters, which aaSharded
// charges once.
func runShard(inst *Instance, m int, opts Options, b shardBox) *Region {
	rel := make([]geom.Relation, len(inst.Users))
	inst.HalfspaceBands().Prescreen(b.lo, b.hi, rel)
	run := &aaRun{
		inst: inst,
		m:    m,
		nU:   len(inst.Users),
		opts: opts,
		tr:   celltree.NewRooted(geom.NewBoxCorners(b.lo, b.hi), b.id, b.depth),
	}
	run.seedRootPrescreened(rel)
	run.drain()
	return run.region()
}

// merge folds a complete per-shard Stats into s: sums throughout except
// MaxFrontier, which merges by maximum. Commutative and associative, so
// merged totals do not depend on shard order. (mergeWorker, by contrast,
// folds only the counters a frontier worker touches mid-run.)
func (s *Stats) merge(o Stats) {
	s.Cells += o.Cells
	s.Splits += o.Splits
	s.ContainmentTests += o.ContainmentTests
	s.FastTests += o.FastTests
	s.Reported += o.Reported
	s.Eliminated += o.Eliminated
	s.EarlyReported += o.EarlyReported
	s.EarlyEliminated += o.EarlyEliminated
	s.HullTests += o.HullTests
	s.GroupBatchHits += o.GroupBatchHits
	s.PruneLPTests += o.PruneLPTests
	s.PrunedRows += o.PrunedRows
	s.Iterations += o.Iterations
	s.Pivots += o.Pivots
	s.WarmHits += o.WarmHits
	s.WarmMisses += o.WarmMisses
	s.ColdSolves += o.ColdSolves
	s.ScannedProducts += o.ScannedProducts
	s.LayerPrunes += o.LayerPrunes
	s.IndexPatches += o.IndexPatches
	s.IndexRebuilds += o.IndexRebuilds
	s.RoutedLeaves += o.RoutedLeaves
	s.SkippedSubtrees += o.SkippedSubtrees
	s.TouchedFrontier += o.TouchedFrontier
	s.CountDesyncs += o.CountDesyncs
	s.ShardHalfspaces += o.ShardHalfspaces
	s.PrescreenedOut += o.PrescreenedOut
	s.StealCount += o.StealCount
	if o.MaxFrontier > s.MaxFrontier {
		s.MaxFrontier = o.MaxFrontier
	}
}

// mergeSched folds one shard's scheduler profile into the merged
// region's: steal counts and per-worker loads sum, the frontier
// high-water mark merges by maximum (shards run concurrently but each
// frontier is private, so the true process-wide width is unknowable;
// the per-shard maximum is the honest bound). nil in, nil out: a shard
// decided at its root never starts a frontier.
func mergeSched(dst, src *SchedStats) *SchedStats {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = &SchedStats{Workers: src.Workers, PerWorkerCells: make([]int, len(src.PerWorkerCells))}
	}
	dst.Steals += src.Steals
	if src.MaxFrontier > dst.MaxFrontier {
		dst.MaxFrontier = src.MaxFrontier
	}
	for i, n := range src.PerWorkerCells {
		if i < len(dst.PerWorkerCells) {
			dst.PerWorkerCells[i] += n
		}
	}
	return dst
}
