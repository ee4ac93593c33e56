package core

import (
	"fmt"
	"sort"

	"mir/internal/celltree"
	"mir/internal/geom"
	"mir/internal/lp"
	"mir/internal/par"
)

// AA is the advanced mIR algorithm (Section 5, Algorithm 2). Users are
// grouped by common top-k-th product; an arrangement cell tree is grown by
// always processing the cell closest to a decision, batch-testing whole
// groups against it via convex-hull arguments (Lemmas 3/4), and — when a
// group must be opened — classifying its members through inner-group
// processing and partitioning the cell only by the hull vertices of the
// still-cutting members, deferring the rest to descendant cells. For
// two-dimensional instances a specialized insertion (Lemmas 5/6) reports
// whole sub-regions per group directly.
func AA(inst *Instance, m int, opts Options) (*Region, error) {
	run, err := runAA(inst, m, opts)
	if err != nil {
		return nil, err
	}
	return run.region(), nil
}

// runAA executes AA and returns the finished run (tree included), which
// incremental maintenance builds on.
func runAA(inst *Instance, m int, opts Options) (*aaRun, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	run := newRun(inst, geom.NewBox(inst.Dim, 0, 1), m, opts)
	run.seedRoot()
	run.drain()
	return run, nil
}

// newRun returns a modeMIR run over box with every user counted in nU.
// Its stats start from the instance's all-top-k preprocessing counters,
// so they travel with every result; incremental maintenance adds its
// per-arrival search effort on top. Other modes set their fields on the
// result.
func newRun(inst *Instance, box *geom.Polytope, m int, opts Options) *aaRun {
	return &aaRun{
		inst: inst,
		m:    m,
		nU:   len(inst.Users),
		opts: opts,
		tr:   celltree.New(box),
		st:   Stats{ScannedProducts: inst.Prep.ScannedProducts, LayerPrunes: inst.Prep.LayerPrunes},
	}
}

// runMode selects the loop's objective: computing the m-impact region, or
// maximizing coverage under a budget (the IS / budgeted-CO adaptation of
// Section 5.5).
type runMode int

const (
	modeMIR runMode = iota
	modeMaxCov
	modeMinCost
)

// aaRun holds the state of one AA execution: the instance-wide inputs,
// the arrangement, the frontier queue cells are staged on between drains,
// and the built-in sequential worker. All per-cell mutable state (scratch
// buffers, test counters, tree mutation) lives on aaWorker; the run itself
// is read-only while frontier workers are active, except for the fields
// the one-worker modes use.
type aaRun struct {
	inst  *Instance
	m     int
	nU    int
	opts  Options
	tr    *celltree.Tree
	queue par.Queue[*celltree.Cell]
	st    Stats
	rr    int // round-robin cursor for the ablation strategy (one worker only)

	// seq is the built-in sequential worker: its shard writes straight
	// into tr.Stats and its core counters into r.st, so a one-worker
	// drain needs no merge step.
	seq *aaWorker

	// sched records the frontier scheduler's execution, nil when every
	// drain ran at one worker.
	sched *SchedStats

	// Max-coverage mode (IS, budgeted CO).
	mode      runMode
	budget    float64
	costFn    Cost
	base      geom.Vector
	bestCov   int
	bestPoint geom.Vector
	bestCost  float64
}

// aaWorker is the per-goroutine execution context of the AA loop: the
// reusable scratch buffers of the per-cell hot paths, a celltree.Shard for
// subtree mutation, and a private core-Stats accumulator. One goroutine
// processes a cell from start to finish. A one-worker drain uses the
// run's own worker (shard = the tree's own); a wider frontier runs one per
// worker — parallelism comes from concurrent cells — and merges shards
// and stats after the join.
type aaWorker struct {
	r  *aaRun
	sh *celltree.Shard
	st *Stats

	leavesBuf []*celltree.Cell
	isHullBuf []bool
	vcPts     []geom.Vector
	vePts     []geom.Vector
	ptsBuf    []geom.Vector
	gcBuf     []int
	geBuf     []int
	giBuf     []int
	remBuf    []int
}

func (r *aaRun) fast() bool { return !r.opts.DisableFastTest }

// workers resolves the run's parallelism degree (Options.Workers; 0 = all
// cores, 1 = sequential).
func (r *aaRun) workers() int { return par.Resolve(r.opts.Workers) }

// seedRoot attaches the full group list to the root and queues it.
func (r *aaRun) seedRoot() {
	r.seq = &aaWorker{r: r, sh: r.tr.OwnShard(), st: &r.st}
	r.tr.Prune = !r.opts.DisablePruning
	r.tr.WarmStart = !r.opts.DisableWarmStart
	root := r.tr.Root
	if root.Status != celltree.Active {
		return
	}
	cg := &cellGroups{}
	if r.opts.DisableGrouping {
		for _, g := range r.inst.Groups {
			for i := range g.Members {
				single := &Group{Pivot: g.Pivot, R: g.R, Members: g.Members[i : i+1]}
				cg.views = append(cg.views, newView(single))
			}
		}
	} else {
		for _, g := range r.inst.Groups {
			cg.views = append(cg.views, newView(g))
		}
	}
	root.Payload = cg
	if !r.seq.verify(root) {
		r.queue.Push(root, r.priority(root))
	}
}

// processCell runs one iteration of Algorithm 2 on cell c: budget/cost
// pruning (one-worker modes), Update, Verify, group insertion, and the
// distribution of the surviving group list to the cell's new leaves.
// Undecided leaves are handed to push with their processing priority.
//
// In modeMIR this is the frontier's unit of work, and it commutes across
// independent cells: everything it reads is either immutable for the run
// (instance, groups, m, nU) or owned by c (counts, payload, subtree), and
// everything it writes is c's subtree or the worker's private
// accumulators. The processing order of disjoint active cells therefore
// never changes the final tree, counts, or stats sums.
func (w *aaWorker) processCell(c *celltree.Cell, push func(*celltree.Cell, float64)) {
	r := w.r
	if c.Status != celltree.Active {
		return
	}
	w.st.Iterations++
	if r.mode == modeMaxCov && r.pruneBudget(c) {
		return
	}
	if r.mode == modeMinCost && r.pruneCost(c) {
		return
	}
	w.update(c)
	if w.verify(c) {
		return
	}
	cg := c.Payload.(*cellGroups)
	if len(cg.views) == 0 {
		if r.mode == modeMaxCov {
			r.finalize(c)
			return
		}
		// With all users counted, verify must have decided the cell.
		panic(fmt.Sprintf("core: cell %d undecided with empty group list (in=%d out=%d |U|=%d)",
			c.ID, c.InCount, c.OutCount, r.nU))
	}
	vi := r.chooseView(cg)
	var newCG *cellGroups
	if r.inst.Dim == 2 && !r.opts.Disable2D && r.mode == modeMIR {
		newCG = w.insert2D(c, cg, vi)
	} else {
		newCG = w.insertGroup(c, cg, vi)
	}
	if newCG == nil {
		return // the cell was decided during group insertion
	}
	w.leavesBuf = r.tr.Leaves(c, w.leavesBuf[:0])
	// Each active leaf needs an independently mutable copy of the list;
	// newCG itself is unaliased after the distribution, so the first taker
	// can have the original. Distribution and publication are separate
	// passes: push hands a leaf to the scheduler, after which another
	// worker may mutate that leaf's list in place (update/remove) — so no
	// leaf may be published while newCG is still being cloned from.
	taken := false
	for _, leaf := range w.leavesBuf {
		if leaf.Status != celltree.Active {
			continue
		}
		if taken {
			leaf.Payload = newCG.clone()
		} else {
			leaf.Payload = newCG
			taken = true
		}
	}
	for _, leaf := range w.leavesBuf {
		if leaf.Status != celltree.Active {
			continue
		}
		if !w.verify(leaf) {
			push(leaf, r.priority(leaf))
		}
	}
}

// priority is the paper's processing key: for mIR, the number of
// additional covering halfspaces needed to report or excluding halfspaces
// needed to eliminate, whichever is smaller; for max-coverage mode, cells
// with the largest known coverage first.
func (r *aaRun) priority(c *celltree.Cell) float64 {
	if r.mode == modeMaxCov {
		return -float64(c.InCount)
	}
	if r.mode == modeMinCost {
		// Cheapest-possible cells first; the bound is monotone down the
		// tree, so the first candidate popped at a bound above the
		// incumbent proves optimality.
		return r.costFn.LowerBound(c.MBBLo, r.base)
	}
	toReport := float64(r.m - c.InCount)
	toEliminate := float64(r.nU - r.m - c.OutCount + 1)
	if toReport < toEliminate {
		return toReport
	}
	return toEliminate
}

// verify implements Algorithm 2's Verify: early reporting and early
// elimination. It returns true when the cell is (now) decided. "Early"
// means some users were still undecided at decision time (Figure 16d).
// In max-coverage mode there is no fixed m: a cell is eliminated when its
// coverage upper bound cannot beat the incumbent. The max-coverage and
// min-cost branches mutate run-level incumbents and run only on a
// one-worker frontier.
func (w *aaWorker) verify(c *celltree.Cell) bool {
	r := w.r
	if c.Status != celltree.Active {
		return true
	}
	if r.mode == modeMaxCov {
		if r.nU-c.OutCount <= r.bestCov {
			w.sh.Eliminate(c)
			return true
		}
		return false
	}
	if r.mode == modeMinCost {
		if r.nU-c.OutCount < r.m {
			w.sh.Eliminate(c)
			return true
		}
		if c.InCount >= r.m {
			// Every point of the cell covers >= m users: its cheapest
			// point is a candidate optimum.
			if pt, cost, err := r.costFn.MinOverCell(c.Polytope(), r.base); err == nil && cost < r.bestCost {
				r.bestCost = cost
				r.bestPoint = pt
			}
			w.sh.Report(c)
			return true
		}
		return false
	}
	if c.InCount >= r.m {
		w.reportCell(c)
		return true
	}
	if r.nU-c.OutCount < r.m {
		if c.InCount+c.OutCount < r.nU {
			w.st.EarlyEliminated++
		}
		w.sh.Eliminate(c)
		return true
	}
	return false
}

// reportCell marks c as part of R, tracking early-reporting stats.
func (w *aaWorker) reportCell(c *celltree.Cell) {
	if c.Status != celltree.Active {
		return
	}
	if c.InCount+c.OutCount < w.r.nU {
		w.st.EarlyReported++
	}
	w.sh.Report(c)
}

// update is Algorithm 2's Update: test every pending group against the
// cell via Lemmas 3 and 4 and absorb fully-covering / fully-excluded
// groups into the counts, stopping as soon as the cell is decided.
func (w *aaWorker) update(c *celltree.Cell) {
	r := w.r
	cg := c.Payload.(*cellGroups)
	for vi := 0; vi < len(cg.views); {
		switch w.groupRelation(c, cg.views[vi]) {
		case geom.Covers:
			c.InCount += len(cg.views[vi].members)
			cg.remove(vi)
			w.st.GroupBatchHits++
			if r.mode == modeMIR && c.InCount >= r.m {
				return // verify will report; no need to scan further
			}
		case geom.Excludes:
			c.OutCount += len(cg.views[vi].members)
			cg.remove(vi)
			w.st.GroupBatchHits++
			if r.mode == modeMIR && r.nU-c.OutCount < r.m {
				return
			}
		default:
			vi++
		}
	}
}

// groupRelation decides whether every member of the view covers the cell
// (Lemma 3), every member excludes it (Lemma 4), or neither, accumulating
// test counters into the worker's shard. The fast path is the dominance
// test of Section 5.3: if the cell's MBB min-corner dominates the group's
// common top-k-th product r, every product in the cell outscores r for
// every user; symmetrically for the max-corner. Dominance implies the
// score order only for non-negative weights, which instance validation
// enforces (ErrNegativeWeight).
func (w *aaWorker) groupRelation(c *celltree.Cell, v *view) geom.Relation {
	r := w.r
	if r.fast() {
		if c.MBBLo.WeakDominates(v.g.R) {
			return geom.Covers
		}
		if v.g.R.WeakDominates(c.MBBHi) {
			return geom.Excludes
		}
	}
	allCover, allExclude := true, true
	for _, pos := range v.hullPositions(r.inst) {
		h := r.inst.HS[v.members[pos]]
		switch c.ClassifyInto(h, r.fast(), w.sh.Stats()) {
		case geom.Covers:
			allExclude = false
		case geom.Excludes:
			allCover = false
		default:
			allCover, allExclude = false, false
		}
		if !allCover && !allExclude {
			return geom.Cuts
		}
	}
	if allCover {
		return geom.Covers
	}
	if allExclude {
		return geom.Excludes
	}
	return geom.Cuts
}

// chooseView implements the group-selection strategy (largest by default;
// Figure 17a ablates smallest and round-robin). RoundRobinGroup advances a
// run-global cursor, so the frontier runs it at one worker (see drain);
// the other strategies are pure functions of the cell's list.
func (r *aaRun) chooseView(cg *cellGroups) int {
	switch r.opts.GroupChoice {
	case SmallestGroup:
		best := 0
		for i, v := range cg.views {
			if len(v.members) < len(cg.views[best].members) {
				best = i
			}
		}
		return best
	case RoundRobinGroup:
		// Pick the cursor's current position, then advance — incrementing
		// first would skip view 0 on the first pick and drift the cursor
		// one slot per call for the lifetime of the run.
		vi := r.rr % len(cg.views)
		r.rr++
		return vi
	default:
		best := 0
		for i, v := range cg.views {
			if len(v.members) > len(cg.views[best].members) {
				best = i
			}
		}
		return best
	}
}

// insertGroup implements Section 5.2's inner-group processing for the view
// at position vi of the cell's group list. It returns the group list to
// hand down to the cell's (possibly new) leaves, or nil when the cell was
// decided during processing.
func (w *aaWorker) insertGroup(c *celltree.Cell, cg *cellGroups, vi int) *cellGroups {
	r := w.r
	inst := r.inst
	v := cg.views[vi]

	var gc, ge, gi []int // positions into v.members (reusable scratch)
	if r.opts.DisableInnerGroup {
		// Ablation: classify every member with its own containment test.
		gc, ge, gi = w.gcBuf[:0], w.geBuf[:0], w.giBuf[:0]
		for pos := range v.members {
			switch c.ClassifyInto(inst.HS[v.members[pos]], r.fast(), w.sh.Stats()) {
			case geom.Covers:
				gc = append(gc, pos)
			case geom.Excludes:
				ge = append(ge, pos)
			default:
				gi = append(gi, pos)
			}
		}
	} else {
		gc, ge, gi = w.classifyByHull(c, v)
	}
	// The position lists live in the worker's scratch; store them back so
	// appends that grew them are kept. Nothing below retains them: member
	// lists are copied out before they land in views.
	w.gcBuf, w.geBuf, w.giBuf = gc[:0], ge[:0], gi[:0]
	// Keep positions ascending: views inherit the group's member ordering
	// (descending w[1] for d = 2, where the hull-extremes shortcut depends
	// on it).
	sort.Ints(gi)

	c.InCount += len(gc)
	c.OutCount += len(ge)

	// base: the pending list with the opened view removed.
	base := cg.clone()
	base.remove(indexOfView(base, v))

	// Keep c's own payload consistent with its counts at every decision
	// point: the cutting members (all of G^i) are still pending for c
	// itself. Incremental maintenance relies on this invariant
	// (counts + pending = all users) on decided cells.
	if len(gi) > 0 {
		giMembers := make([]int, len(gi))
		for i, pos := range gi {
			giMembers[i] = v.members[pos]
		}
		withGi := base.clone()
		withGi.views = append(withGi.views, v.withMembers(giMembers))
		c.Payload = withGi
	} else {
		c.Payload = base
	}

	if w.verify(c) {
		return nil
	}
	if len(gi) == 0 {
		return base
	}

	// Partition only by the hull vertices of the still-cutting members;
	// defer the rest to descendant cells (delayed insertion). The ablation
	// inserts every cutting halfspace eagerly.
	var insertPos []int
	if r.opts.DisableInnerGroup {
		insertPos = gi
	} else {
		insertPos = w.hullOfPositions(v, gi)
	}
	remainder := subtractPositions(gi, insertPos, w.remBuf[:0])
	w.remBuf = remainder[:0]
	newCG := base
	if len(remainder) > 0 {
		members := make([]int, len(remainder))
		for i, pos := range remainder {
			members[i] = v.members[pos]
		}
		newCG = base.clone()
		newCG.views = append(newCG.views, v.withMembers(members))
	}
	for _, pos := range insertPos {
		insertHS(w.sh, c, inst.HS[v.members[pos]], r.fast(), nil)
	}
	return newCG
}

// classifyByHull classifies the view's members into covering (gc),
// excluding (ge), and cutting (gi) sets using the hull-first strategy of
// Section 5.2: classify the hull vertices with geometric tests, then place
// interior members by convex-hull membership (Lemmas 3/4 make any member
// inside conv of covering vertices covering, and likewise for excluded).
// Members are pre-filtered with the O(d) MBB test.
func (w *aaWorker) classifyByHull(c *celltree.Cell, v *view) (gc, ge, gi []int) {
	r := w.r
	inst := r.inst
	hullPos := v.hullPositions(inst)
	// Reusable scratch: the position lists, a position-indexed hull marker,
	// and the vertex point lists (one worker goroutine owns them).
	gc, ge, gi = w.gcBuf[:0], w.geBuf[:0], w.giBuf[:0]
	if cap(w.isHullBuf) < len(v.members) {
		w.isHullBuf = make([]bool, len(v.members))
	}
	isHull := w.isHullBuf[:len(v.members)]
	for i := range isHull {
		isHull[i] = false
	}
	vcPts, vePts := w.vcPts[:0], w.vePts[:0]
	for _, pos := range hullPos {
		isHull[pos] = true
		switch c.ClassifyInto(inst.HS[v.members[pos]], r.fast(), w.sh.Stats()) {
		case geom.Covers:
			gc = append(gc, pos)
			vcPts = append(vcPts, inst.WProj[v.members[pos]])
		case geom.Excludes:
			ge = append(ge, pos)
			vePts = append(vePts, inst.WProj[v.members[pos]])
		default:
			gi = append(gi, pos)
		}
	}
	w.vcPts, w.vePts = vcPts, vePts
	for pos := range v.members {
		if isHull[pos] {
			continue
		}
		ui := v.members[pos]
		// Fast MBB pre-test on the member's own halfspace.
		if r.fast() {
			if rel, ok := c.FastClassifyInto(inst.HS[ui], w.sh.Stats()); ok {
				if rel == geom.Covers {
					gc = append(gc, pos)
				} else {
					ge = append(ge, pos)
				}
				continue
			}
		}
		switch {
		case len(vcPts) > 0 && w.inHull(inst.WProj[ui], vcPts):
			gc = append(gc, pos)
		case len(vePts) > 0 && w.inHull(inst.WProj[ui], vePts):
			ge = append(ge, pos)
		default:
			gi = append(gi, pos)
		}
	}
	return gc, ge, gi
}

// inHull wraps the hull-membership LP, counting it for the ablation stats
// and charging its pivots to the worker's own Stats (race-free per worker;
// merged order-free afterwards).
func (w *aaWorker) inHull(q geom.Vector, pts []geom.Vector) bool {
	w.st.HullTests++
	var d lp.Counters
	in := geom.InConvexHullCounted(q, pts, &d)
	w.st.addLP(d)
	return in
}

// hullOfPositions returns the subset of positions whose weight vectors are
// hull vertices among the given positions. The point list is assembled in
// the worker's reusable scratch.
func (w *aaWorker) hullOfPositions(v *view, positions []int) []int {
	inst := w.r.inst
	if inst.Dim == 2 {
		// Members are sorted by w[1]; the extremes are first and last.
		if len(positions) <= 2 {
			return positions
		}
		return []int{positions[0], positions[len(positions)-1]}
	}
	if cap(w.ptsBuf) < len(positions) {
		w.ptsBuf = make([]geom.Vector, len(positions))
	}
	pts := w.ptsBuf[:len(positions)]
	for i, pos := range positions {
		pts[i] = inst.WProj[v.members[pos]]
	}
	hull := geom.ExtremePoints(pts)
	out := make([]int, len(hull))
	for i, hi := range hull {
		out[i] = positions[hi]
	}
	return out
}

// subtractPositions appends the elements of all that are not in sub to dst
// and returns it. Both inputs are ascending (gi is sorted, and
// hullOfPositions preserves its input order), so a two-pointer merge
// suffices.
func subtractPositions(all, sub, dst []int) []int {
	j := 0
	for _, p := range all {
		for j < len(sub) && sub[j] < p {
			j++
		}
		if j < len(sub) && sub[j] == p {
			continue
		}
		dst = append(dst, p)
	}
	return dst
}

// indexOfView locates v in the clone (clone preserves order, so this is
// the original index, but search keeps the invariant local).
func indexOfView(cg *cellGroups, v *view) int {
	for i, x := range cg.views {
		if x == v {
			return i
		}
	}
	panic("core: view not found in group list")
}
