// Package celltree maintains the halfspace-arrangement cell tree used by
// the mIR algorithms (the "cell-tree" of Tang et al. [52], adopted by the
// paper's BSL and AA).
//
// The tree is binary: the root covers the whole product-space box, and
// each internal node records the halfspace whose boundary split it. A
// leaf's region is implicitly the intersection of the box with one
// (possibly flipped) halfspace per ancestor. Leaves carry the running
// counts of influential halfspaces known to cover (InCount) or exclude
// (OutCount) them, a cached minimum bounding box that powers the paper's
// filter-and-refine fast tests (Section 5.3), and an algorithm-specific
// payload (AA stores its individualized pending-group list there).
//
// Mutation model: the tree as a whole is not safe for concurrent use, but
// disjoint subtrees are. Every mutating operation (SplitBy, Report,
// Eliminate) lives on a Shard — a per-goroutine mutation context carrying
// its own scratch buffers and Stats accumulator. The Tree's own methods
// delegate to a built-in shard writing straight into Tree.Stats, so
// sequential callers see the original API; parallel callers take one
// NewShard per worker, confine each worker to cells of disjoint subtrees,
// and merge the shard stats after the join (Tree.AbsorbShard). Cell IDs
// are derived from the tree path, not a shared counter, so the arrangement
// — IDs included — is byte-identical no matter how subtree work is
// scheduled.
package celltree

import (
	"mir/internal/geom"
	"mir/internal/lp"
)

// Status is a leaf's lifecycle state.
type Status uint8

const (
	// Active leaves may still be split, reported, or eliminated.
	Active Status = iota
	// Reported leaves are part of the mIR result R.
	Reported
	// Eliminated leaves can no longer reach the coverage threshold.
	Eliminated
)

// String returns a readable status name.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Reported:
		return "reported"
	case Eliminated:
		return "eliminated"
	default:
		return "invalid"
	}
}

// Cell is a node of the arrangement tree. Leaves correspond to current
// arrangement cells; internal nodes record past splits.
type Cell struct {
	// ID is derived from the cell's tree path in heap numbering: the root
	// is 0 and a split assigns 2·ID+1 (outside child) and 2·ID+2 (inside
	// child). IDs therefore depend only on the split history, never on the
	// order in which independent subtrees were processed — the property
	// the task-parallel frontier relies on. They are unique up to depth
	// 62; beyond that the arithmetic wraps (still deterministically). IDs
	// are diagnostic: no algorithmic decision reads them.
	ID     int
	Depth  int
	Status Status

	// InCount users are known to cover the entire cell; OutCount users are
	// known to exclude it. Undecided users are tracked by the algorithm's
	// payload.
	InCount  int
	OutCount int

	// MBBLo/MBBHi cache the cell's minimum bounding box.
	MBBLo, MBBHi geom.Vector

	// Empty marks a split child whose region degenerated (borderline
	// numerics); such cells carry no geometry and are never revived.
	Empty bool

	// MaintSeq, StageSeq, ElimSlack, and RepIn are the routed-maintenance
	// bookkeeping of core's Maintainer (unused — zero — outside maintained
	// runs). MaintSeq is the absolute index into the maintenance event log
	// the node's subtree BOUNDS are current through; StageSeq (meaningful at
	// leaves only) is the index the leaf's PAYLOAD and counts are actually
	// staged through. A deferral folds a log window into the bounds and
	// advances MaintSeq without touching payloads, so StageSeq lags behind
	// until a descent or settle replays the leaf's backlog; StageSeq <=
	// MaintSeq always. ElimSlack bounds from above, over the eliminated
	// leaves of the subtree, the revival slack nAlive − OutCount (how close
	// the closest one is to revival); RepIn bounds from below, over the
	// reported leaves, the coverage count InCount (how close the closest one
	// is to demotion). Both are exact at leaves when freshly settled and
	// only loosen as deferred events are folded in conservatively; the
	// router skips a whole subtree when the bounds prove no deferred event
	// can flip a decision below it.
	MaintSeq  int
	StageSeq  int
	ElimSlack int
	RepIn     int

	// Payload carries algorithm state (e.g. AA's pending group views).
	Payload any

	parent      *Cell
	left, right *Cell
	split       geom.Halfspace
	splitFlip   geom.Halfspace // split.Flip(), cached (left-child paths reuse it)
	owner       *Tree
	poly        *geom.Polytope // lazily built H-rep, cached (cells are classified many times)

	// warm is the cell's LP basis snapshot, exported by the split-time
	// reduction chain (or inherited from the parent when the reduction had
	// nothing to export). Classification solves re-enter it. Ownership
	// rule: written exactly once, by the shard that created the cell,
	// before the cell is published to the scheduler; immutable afterwards,
	// so concurrent classification reads race-free. nil at the root and
	// whenever Tree.WarmStart is off.
	warm *lp.Basis
}

// Parent returns the parent node (nil at the root).
func (c *Cell) Parent() *Cell { return c.parent }

// Children returns the outside (left) and inside (right) children of an
// internal node; both nil for leaves.
func (c *Cell) Children() (left, right *Cell) { return c.left, c.right }

// IsLeaf reports whether c has not been split.
func (c *Cell) IsLeaf() bool { return c.left == nil }

// Split returns the halfspace that divided this internal node.
func (c *Cell) Split() geom.Halfspace { return c.split }

// Tree is the arrangement over a box-shaped product space.
type Tree struct {
	Root *Cell
	Dim  int
	Box  *geom.Polytope

	// Prune enables split-time redundancy elimination of child cell
	// H-representations (on by default). A cell's raw constraint path grows
	// by one row per ancestor, but deep cells are small and most ancestor
	// boundaries no longer touch them; pruning keeps the per-cell LP sizes
	// bounded by the cell's local geometry instead of its depth. Pruning
	// changes only the representation, never the point set, so classification
	// outcomes — and hence the reported region — are identical either way
	// (see FullPolytope for the export path).
	Prune bool

	// WarmStart enables warm-started LP solves (on by default): split-time
	// reduction chains basis snapshots test to test and leaves each child a
	// compact per-cell basis; classification re-enters it. Like Prune, the
	// flag changes only how solves start, never what they answer — regions
	// and all Stats except the LP pivot counters are byte-identical either
	// way (see TestWarmStartByteIdentical).
	WarmStart bool

	Stats Stats

	// own is the built-in sequential shard: it writes into Tree.Stats
	// directly, so single-goroutine callers need no merge step.
	own Shard
}

// Stats aggregates arrangement counters; the paper's Figures 12b and 16
// report these.
type Stats struct {
	CellsCreated     int // leaves ever created (root included)
	Splits           int
	ContainmentTests int // LP-backed classifications
	FastTests        int // MBB filter tests
	FastHits         int // fast tests that were conclusive
	Reported         int
	Eliminated       int
	MaxDepth         int

	// PruneLPTests counts the redundancy-elimination LPs run at split time;
	// PrunedRows counts constraint rows dropped (by the interval prescreen
	// and the LP phase together). Both are kept separate from
	// ContainmentTests so the classification counters stay comparable with
	// pruning on or off.
	PruneLPTests int
	PrunedRows   int

	// RoutedLeaves, SkippedSubtrees, and TouchedFrontier profile routed
	// incremental maintenance (all zero outside maintained runs).
	// RoutedLeaves counts leaf visits by event application — a leaf whose
	// payload and counts were brought current by staging/settling events
	// onto it. SkippedSubtrees counts deferrals: nodes (subtree roots or
	// individual leaves) where the router proved from the MBB
	// classification of the pending events and the subtree bounds that no
	// decision below can flip, and moved on without descending.
	// TouchedFrontier counts leaves handed to re-verification (a report
	// demoted or an elimination revived by some event) — the cells a drain
	// actually reprocesses. All three merge by summation.
	RoutedLeaves    int
	SkippedSubtrees int
	TouchedFrontier int

	// LP aggregates the simplex-effort counters (pivots, warm hits/misses,
	// cold solves) of every classification and reduction solve charged to
	// this accumulator. Unlike every counter above, the pivot numbers are
	// NOT part of the determinism contract across WarmStart settings — that
	// is the point of the flag — but they merge order-free like the rest,
	// so totals are deterministic for a fixed configuration at workers=1.
	LP lp.Counters
}

// Merge folds every counter of o into s: sums throughout, except MaxDepth
// which merges by maximum. Both operations are commutative and
// associative, so merging per-worker shard stats in any order yields the
// same totals — the frontier scheduler's determinism depends on this.
func (s *Stats) Merge(o Stats) {
	s.CellsCreated += o.CellsCreated
	s.Splits += o.Splits
	s.ContainmentTests += o.ContainmentTests
	s.FastTests += o.FastTests
	s.FastHits += o.FastHits
	s.Reported += o.Reported
	s.Eliminated += o.Eliminated
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.PruneLPTests += o.PruneLPTests
	s.PrunedRows += o.PrunedRows
	s.RoutedLeaves += o.RoutedLeaves
	s.SkippedSubtrees += o.SkippedSubtrees
	s.TouchedFrontier += o.TouchedFrontier
	s.LP.Add(o.LP)
}

// New creates a tree over the given box polytope (normally [0,1]^d or, for
// IS-style problems, [p, 1]^d).
func New(box *geom.Polytope) *Tree {
	lo, hi, ok := box.MBB()
	t := &Tree{Dim: box.Dim, Box: box, Prune: true, WarmStart: true}
	root := &Cell{ID: 0, MBBLo: lo, MBBHi: hi}
	if !ok {
		root.Status = Eliminated // empty search space
	}
	root.owner = t
	t.Root = root
	t.Stats.CellsCreated = 1
	t.own = Shard{tr: t, st: &t.Stats}
	return t
}

// Shard is a mutation context for the tree: it owns the scratch buffers a
// split needs and a Stats accumulator for every counter the mutation
// updates. One shard must be used by at most one goroutine at a time, and
// concurrent shards must operate on disjoint subtrees (no cell may be an
// ancestor of a cell another shard mutates). Classification counters for
// read-side operations go through the same accumulator (Stats()).
type Shard struct {
	tr *Tree
	st *Stats

	// absorbed marks a worker shard whose stats were already folded into
	// the tree; AbsorbShard panics on a second fold (see there).
	absorbed bool

	// Reusable SplitBy scratch.
	pathBuf  []geom.Halfspace
	reduceIn []geom.Halfspace
}

// NewShard returns a fresh mutation context with a private Stats
// accumulator. Merge it back with AbsorbShard after the parallel phase.
func (tr *Tree) NewShard() *Shard {
	return &Shard{tr: tr, st: &Stats{}}
}

// AbsorbShard folds a worker shard's counters into the tree's Stats and
// retires the shard. Call it from a single goroutine after all shard work
// has completed; absorbing shards in any order yields identical totals
// (see Stats.Merge). Absorbing the same shard twice panics: a retired
// shard's accumulator is spent, so a second fold is always a lifecycle
// bug — either an aliased shard or a worker kept running past the join —
// that would silently corrupt whatever stats the shard had gathered since.
// The tree's built-in shard (OwnShard) writes into Tree.Stats directly and
// absorbing it is a harmless no-op.
func (tr *Tree) AbsorbShard(sh *Shard) {
	if sh.st == &tr.Stats {
		return
	}
	if sh.absorbed {
		panic("celltree: AbsorbShard called twice on the same shard")
	}
	sh.absorbed = true
	tr.Stats.Merge(*sh.st)
	*sh.st = Stats{}
}

// Stats returns the shard's counter accumulator; read-side classification
// helpers (Cell.ClassifyInto, Cell.FastClassifyInto) accept it so a
// worker's entire footprint lands in one mergeable struct.
func (sh *Shard) Stats() *Stats { return sh.st }

// OwnShard returns the tree's built-in sequential shard, whose accumulator
// is Tree.Stats itself (no merge step needed). It must not be used while
// any worker shard is active: it aliases the Stats every AbsorbShard
// writes.
func (tr *Tree) OwnShard() *Shard { return &tr.own }

// Polytope returns the H-representation of the cell: the box plus one
// oriented halfspace per ancestor split. The representation is built once
// (reusing the parent's cached representation) and cached; cells are
// classified against many halfspaces over their lifetime. SplitBy
// materializes the children's representations eagerly, so within a
// parallel phase the lazy path runs only for a root that was never split —
// a cell processed by exactly one goroutine.
func (c *Cell) Polytope() *geom.Polytope {
	if c.poly != nil {
		return c.poly
	}
	tr := c.owner
	var base []geom.Halfspace
	if c.parent == nil {
		base = tr.Box.Hs
	} else {
		h := c.parent.split
		if c == c.parent.left {
			h = c.parent.splitFlip
		}
		ph := c.parent.Polytope().Hs
		base = make([]geom.Halfspace, 0, len(ph)+1)
		base = append(base, ph...)
		base = append(base, h)
	}
	c.poly = &geom.Polytope{Dim: tr.Dim, Hs: base}
	return c.poly
}

// FullPolytope returns the cell's raw H-representation: the tree's box
// constraints followed by one oriented halfspace per ancestor split in
// root-to-leaf order. Unlike Polytope — whose cached representation is
// redundancy-pruned when Tree.Prune is set — the result depends only on
// the split history, so region export built on it is byte-identical
// whether pruning ran or not.
func (c *Cell) FullPolytope() *geom.Polytope {
	tr := c.owner
	hs := c.appendRawPath(make([]geom.Halfspace, 0, len(tr.Box.Hs)+c.Depth))
	return &geom.Polytope{Dim: tr.Dim, Hs: hs}
}

// appendRawPath appends the cell's raw constraint path — box rows, then one
// oriented split row per ancestor in root-to-leaf order — to dst.
func (c *Cell) appendRawPath(dst []geom.Halfspace) []geom.Halfspace {
	if c.parent == nil {
		return append(dst, c.owner.Box.Hs...)
	}
	dst = c.parent.appendRawPath(dst)
	h := c.parent.split
	if c == c.parent.left {
		h = c.parent.splitFlip
	}
	return append(dst, h)
}

// FastClassify runs the MBB-based filter test of Section 5.3. conclusive
// is false when the bounding box cannot decide the relation; callers then
// refine with an LP classification. The test is exact for Covers/Excludes
// answers it does give.
func (c *Cell) FastClassify(h geom.Halfspace) (rel geom.Relation, conclusive bool) {
	return c.FastClassifyInto(h, &c.owner.Stats)
}

// FastClassifyInto is FastClassify with the test counters accumulated into
// st instead of the tree's shared Stats — normally a worker shard's
// accumulator (Shard.Stats), folded back by AbsorbShard. It reads only
// immutable cell state (the cached bounding box).
func (c *Cell) FastClassifyInto(h geom.Halfspace, st *Stats) (rel geom.Relation, conclusive bool) {
	st.FastTests++
	lo, hi := 0.0, 0.0
	for j, w := range h.W {
		if w >= 0 {
			lo += w * c.MBBLo[j]
			hi += w * c.MBBHi[j]
		} else {
			lo += w * c.MBBHi[j]
			hi += w * c.MBBLo[j]
		}
	}
	if lo >= h.T-geom.ClassifyTol {
		st.FastHits++
		return geom.Covers, true
	}
	if hi <= h.T+geom.ClassifyTol {
		st.FastHits++
		return geom.Excludes, true
	}
	return geom.Cuts, false
}

// Classify determines the cell-halfspace relation, using the fast MBB test
// first when useFast is set, then falling back to LP containment tests.
func (c *Cell) Classify(h geom.Halfspace, useFast bool) geom.Relation {
	return c.ClassifyInto(h, useFast, &c.owner.Stats)
}

// ClassifyInto is Classify with the test counters accumulated into st
// instead of the tree's shared Stats — normally a worker shard's
// accumulator (Shard.Stats), folded back by AbsorbShard — so workers
// processing disjoint cells classify concurrently without sharing a
// counter. A cell is classified only by the goroutine processing it, so
// its lazily cached H-representation needs no guard; the LP scratch state
// is pooled per goroutine (sync.Pool).
func (c *Cell) ClassifyInto(h geom.Halfspace, useFast bool, st *Stats) geom.Relation {
	if useFast {
		if rel, ok := c.FastClassifyInto(h, st); ok {
			return rel
		}
	}
	st.ContainmentTests++
	if c.owner.WarmStart {
		// Seed the slab solves from the cell's split-time basis (c.warm is
		// immutable once the cell is published, so concurrent classification
		// stays race-free; a nil seed still chains the two slab solves).
		return c.Polytope().ClassifyWarm(h, c.warm, &st.LP)
	}
	return c.Polytope().ClassifyCounted(h, &st.LP)
}

// SplitBy divides the leaf by h's boundary hyperplane using the tree's
// built-in sequential shard; see Shard.SplitBy.
func (tr *Tree) SplitBy(c *Cell, h geom.Halfspace) (left, right *Cell) {
	return tr.own.SplitBy(c, h)
}

// SplitBy divides the leaf by h's boundary hyperplane. The right child is
// the part inside h, the left child the part outside. Children inherit the
// parent's counts, receive path-derived IDs (2·ID+1 / 2·ID+2), and receive
// bounding boxes computed by analytically clipping the parent's box
// against the split halfspace — an O(d²) operation yielding a valid
// (possibly slightly loose) bounding box, which is all the
// filter-and-refine fast tests require, at a fraction of the cost of the
// 2d linear programs an exact box would take.
//
// Callers split only on halfspaces classified as Cuts, which certifies
// both sides non-empty; a child whose clipped box nevertheless degenerates
// (borderline numerics) is returned with Status Eliminated.
func (sh *Shard) SplitBy(c *Cell, h geom.Halfspace) (left, right *Cell) {
	if !c.IsLeaf() {
		panic("celltree: SplitBy on internal node")
	}
	tr := sh.tr
	c.split = h
	c.splitFlip = h.Flip()
	mk := func(side int) *Cell {
		return &Cell{
			ID:       2*c.ID + side,
			Depth:    c.Depth + 1,
			InCount:  c.InCount,
			OutCount: c.OutCount,
			// Children of a split are current through the same maintenance
			// event as their parent; the routing bounds are recomputed by the
			// maintainer's post-drain refresh (splits during maintenance only
			// happen inside re-verified subtrees).
			MaintSeq: c.MaintSeq,
			StageSeq: c.StageSeq,
			parent:   c,
			owner:    tr,
		}
	}
	left = mk(1)
	right = mk(2)
	c.left, c.right = left, right
	sh.st.Splits++
	if c.Depth+1 > sh.st.MaxDepth {
		sh.st.MaxDepth = c.Depth + 1
	}
	// The raw (unpruned) ancestor path. Bounding boxes are always derived
	// from it — interval propagation against a redundant row can tighten
	// bounds its implying rows cannot, so propagating over a pruned list
	// would yield looser (though still valid) boxes and perturb the fast
	// tests. Deriving from the raw path keeps MBBs, fast-test outcomes, and
	// Stats counters identical whether pruning is on or off.
	sh.pathBuf = c.appendRawPath(sh.pathBuf[:0])
	full := sh.pathBuf
	// Redundancy elimination, in contrast, starts from the parent's
	// already-reduced representation: redundancy is monotone down the tree
	// (a row implied over the parent cell stays implied over either child),
	// so rows the parent's reduction dropped never need re-testing.
	var base []geom.Halfspace
	if tr.Prune {
		base = c.Polytope().Hs
	}
	for _, ch := range [2]*Cell{left, right} {
		hs := h
		if ch == left {
			hs = c.splitFlip
		}
		lo, hi, ok := clipBox(c.MBBLo, c.MBBHi, hs)
		if ok {
			// Tighten by interval propagation over the cell's whole raw
			// constraint path (ancestors first, the new split row last):
			// each pass re-clips the box against every constraint, and a
			// shrunken box can make earlier constraints bite again. Two
			// passes capture most of the tightening at a fraction of the
			// cost of exact (LP-based) bounds.
			for pass := 0; pass < 2 && ok; pass++ {
				for _, hp := range full {
					if !clipBoxInPlace(lo, hi, hp) {
						ok = false
						break
					}
				}
				if ok && !clipBoxInPlace(lo, hi, hs) {
					ok = false
				}
			}
		}
		if !ok {
			ch.Status = Eliminated
			ch.Empty = true
			ch.MBBLo = c.MBBLo.Clone()
			ch.MBBHi = c.MBBLo.Clone() // degenerate box
			continue
		}
		ch.MBBLo, ch.MBBHi = lo, hi
		if tr.Prune {
			in := append(sh.reduceIn[:0], base...)
			in = append(in, hs)
			sh.reduceIn = in[:0]
			var red []geom.Halfspace
			var rst geom.ReduceStats
			if tr.WarmStart {
				// Warm-start the reduction chain from the parent's basis and
				// keep the last test's basis as the child's snapshot. Row keys
				// survive the hop because the child's system reuses the
				// parent's coefficient vectors (axis rows share the cached
				// unit normals, survivors alias the parent's rows). When the
				// chain exports nothing (no LP ran, or the final basis rested
				// on a transient row) the child shares the parent's snapshot —
				// a Basis is immutable, so sharing is safe.
				wb := &lp.Basis{}
				var wok bool
				red, rst, wok = geom.ReduceCellBasis(tr.Dim, in, lo, hi, c.warm, wb, &sh.st.LP)
				if wok {
					ch.warm = wb
				} else {
					ch.warm = c.warm
				}
			} else {
				red, rst, _ = geom.ReduceCellBasis(tr.Dim, in, lo, hi, nil, nil, &sh.st.LP)
			}
			sh.st.PruneLPTests += rst.LPTests
			sh.st.PrunedRows += rst.BoxDropped + rst.LPDropped
			ch.poly = &geom.Polytope{Dim: tr.Dim, Hs: red}
		} else {
			raw := make([]geom.Halfspace, 0, len(full)+1)
			raw = append(raw, full...)
			raw = append(raw, hs)
			ch.poly = &geom.Polytope{Dim: tr.Dim, Hs: raw}
		}
		sh.st.CellsCreated++
	}
	return left, right
}

// clipBoxInPlace tightens [lo, hi] to the exact bounding box of
// [lo, hi] ∩ {x : W·x >= T}, returning false when the intersection is
// empty (the box is then partly clipped and must not be used). For each
// coordinate, the extreme feasible value is found by setting the other
// coordinates to their W-maximizing corner. Coordinate j reads only its
// own bounds once sMax is computed, so clipping in place gives the same
// bits as clipping a copy. The interval-propagation passes call it once
// per constraint per split.
func clipBoxInPlace(lo, hi geom.Vector, h geom.Halfspace) bool {
	// sMax = max of W·x over the box.
	sMax := 0.0
	for j, w := range h.W {
		if w >= 0 {
			sMax += w * hi[j]
		} else {
			sMax += w * lo[j]
		}
	}
	if sMax < h.T-geom.Eps {
		return false
	}
	for j, w := range h.W {
		if w > geom.Eps {
			// Others at their max: w_j x_j >= T - (sMax - w_j hi_j).
			if bound := (h.T - (sMax - w*hi[j])) / w; bound > lo[j] {
				lo[j] = bound
			}
		} else if w < -geom.Eps {
			// w_j < 0: x_j <= (T - otherMax)/w_j with otherMax = sMax - w_j lo_j.
			if bound := (h.T - (sMax - w*lo[j])) / w; bound < hi[j] {
				hi[j] = bound
			}
		}
		if lo[j] > hi[j]+geom.Eps {
			return false
		}
		if lo[j] > hi[j] {
			lo[j] = hi[j]
		}
	}
	return true
}

// clipBox is clipBoxInPlace on a fresh copy of the box (one backing
// array for both corners), or ok=false when the intersection is empty.
func clipBox(lo, hi geom.Vector, h geom.Halfspace) (nlo, nhi geom.Vector, ok bool) {
	backing := make([]float64, 2*len(lo))
	nlo = geom.Vector(backing[:len(lo):len(lo)])
	nhi = geom.Vector(backing[len(lo):])
	copy(nlo, lo)
	copy(nhi, hi)
	if !clipBoxInPlace(nlo, nhi, h) {
		return nil, nil, false
	}
	return nlo, nhi, true
}

// Report marks the leaf as part of the result region (sequential shard).
func (tr *Tree) Report(c *Cell) { tr.own.Report(c) }

// Eliminate marks the leaf as unable to reach the coverage threshold
// (sequential shard).
func (tr *Tree) Eliminate(c *Cell) { tr.own.Eliminate(c) }

// Report marks the leaf as part of the result region.
func (sh *Shard) Report(c *Cell) {
	if c.Status == Active {
		c.Status = Reported
		sh.st.Reported++
	}
}

// Eliminate marks the leaf as unable to reach the coverage threshold.
func (sh *Shard) Eliminate(c *Cell) {
	if c.Status == Active {
		c.Status = Eliminated
		sh.st.Eliminated++
	}
}

// Reactivate returns a decided leaf to the Active state. Incremental
// maintenance uses it when a user-set update invalidates an earlier
// report/elimination decision. Reactivation happens only between parallel
// phases, so it stays a Tree (sequential) operation.
func (tr *Tree) Reactivate(c *Cell) {
	switch c.Status {
	case Reported:
		tr.Stats.Reported--
	case Eliminated:
		tr.Stats.Eliminated--
	default:
		return
	}
	c.Status = Active
}

// Leaves appends all leaves under c (or the whole tree when c is nil) to
// dst and returns it.
func (tr *Tree) Leaves(c *Cell, dst []*Cell) []*Cell {
	if c == nil {
		c = tr.Root
	}
	if c.IsLeaf() {
		return append(dst, c)
	}
	dst = tr.Leaves(c.left, dst)
	dst = tr.Leaves(c.right, dst)
	return dst
}

// ReportedLeaves returns every leaf currently marked Reported.
func (tr *Tree) ReportedLeaves() []*Cell {
	var out []*Cell
	for _, l := range tr.Leaves(nil, nil) {
		if l.Status == Reported {
			out = append(out, l)
		}
	}
	return out
}
