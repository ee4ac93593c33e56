package core

import (
	"bytes"
	"sort"

	"mir/internal/celltree"
	"mir/internal/geom"
)

// Routed maintenance: apply each population event to the leaves it can
// actually affect instead of sweeping the whole arrangement.
//
// The maintainer keeps its staged events in a persistent log (Maintainer.log)
// and lets subtrees lag behind it. Every cell carries three bookkeeping
// fields (celltree.Cell.MaintSeq/ElimSlack/RepIn): the log index the node is
// current through, an upper bound — over the eliminated leaves below — on the
// revival slack nAlive − OutCount, and a lower bound — over the reported
// leaves below — on the coverage count InCount. Leaves settle to exact values;
// internal nodes take the max/min of their children.
//
// When a batch arrives, routeNode descends from the root. At each node it
// replays the node's pending log window against the bounds, classifying each
// event's halfspace against the node MBB (the Section 5.3 filter test lifted
// from leaves to subtree roots):
//
//   - an arrival whose halfspace strictly excludes the node MBB moves
//     neither bound: every leaf below absorbs it as OutCount++ (see
//     stageLeaf), so the alive population and the out-counts rise together
//     and the revival slack nAlive − OutCount is unchanged. One that
//     strictly covers the MBB raises both bounds by 1 (every leaf below
//     gains InCount); an inconclusive test raises only the slack bound
//     (the conservative direction — cut leaves gain a pending view, not an
//     out-count).
//   - a departure whose halfspace strictly covers the node MBB lowers both
//     bounds by 1; one that strictly excludes it changes neither; an
//     inconclusive test lowers only the coverage bound (again the
//     conservative direction for each bound).
//
// If no prefix of the window pushes the slack bound to m or the coverage
// bound below m, no decision below the node can flip: the whole subtree is
// skipped — the folded bounds and the advanced MaintSeq are the only writes.
// Otherwise the descent recurses, and leaves it reaches settle their backlog
// through Maintainer.stageLeaf, the exact same per-leaf replay the full sweep
// runs — which is why regions are byte-identical routing on or off: routing
// changes when a leaf's bookkeeping is brought current, never what any leaf
// or drain computes. A deferral proof covers every event in its window, so a
// later settle of that backlog can never fire a re-verification; fired
// buckets only ever hold indices from the newest batch (settleAll panics if
// the guarantee is violated rather than risking a silently reordered drain).
//
// The log is compacted (settleAll: settle every leaf, refresh every bound,
// truncate) once it reaches routeLogCap, keeping replay windows and the
// retained batchOps bounded.

// routeLogCap bounds the deferred-event backlog. Compaction costs one full
// sweep, amortized over at least routeLogCap events, so the per-event
// overhead it adds is |leaves|/routeLogCap — negligible next to the sweep
// per event it replaces.
const routeLogCap = 2048

// Sentinel bounds for sides a subtree does not have (no eliminated leaves /
// no reported leaves below). Quarter-range, not MinInt/MaxInt: deferral
// folds drift sentinels by one per event, and the slack headroom keeps the
// arithmetic overflow-free for any realistic event volume while preserving
// "no fire check can ever pass" on the sentinel side.
const (
	slackNegInf = -(1 << 60)
	repInfPos   = 1 << 60
)

// canDefer replays the node's pending log window against its subtree bounds
// and reports whether the whole subtree can skip the window. On success the
// folded bounds are stored, the node is marked current, and the deferral is
// counted; on failure the node is left untouched for the caller to descend.
func (mt *Maintainer) canDefer(c *celltree.Cell) bool {
	st := &mt.run.tr.Stats
	slack, in := c.ElimSlack, c.RepIn
	for e := c.MaintSeq - mt.logBase; e < len(mt.log); e++ {
		op := &mt.log[e]
		rel, conclusive := c.FastClassifyInto(op.h, st)
		if op.arrive {
			if conclusive && rel == geom.Excludes {
				continue // out rises with the population: neither bound moves
			}
			if conclusive && rel == geom.Covers {
				in++
			}
			slack++
			if slack >= mt.m {
				return false // some eliminated leaf below may revive here
			}
			continue
		}
		if conclusive && rel == geom.Excludes {
			continue // neither bound moves, no decision can flip
		}
		if conclusive && rel == geom.Covers {
			slack--
		}
		in--
		if in < mt.m {
			return false // some reported leaf below may demote here
		}
	}
	c.ElimSlack, c.RepIn = slack, in
	c.MaintSeq = mt.logBase + len(mt.log)
	st.SkippedSubtrees++
	return true
}

// routeNode brings the subtree under c current through the end of the log,
// deferring wherever canDefer proves it safe and settling (or bucketing,
// via fire) the leaves it cannot avoid.
func (mt *Maintainer) routeNode(c *celltree.Cell, fire func(e int, leaf *celltree.Cell)) {
	end := mt.logBase + len(mt.log)
	if c.MaintSeq >= end {
		return
	}
	if c.Empty {
		// Degenerate split residue: never staged, never revived. Keep the
		// sentinels explicit so a parent pullUp cannot fold zero values in.
		mt.refreshLeafBounds(c)
		c.MaintSeq = end
		c.StageSeq = end
		return
	}
	if mt.canDefer(c) {
		return
	}
	if c.IsLeaf() {
		// Stage from the payload currency, not the bounds currency: earlier
		// deferrals advanced MaintSeq while leaving the payload stale, and
		// every one of those skipped events still has to reach the pending
		// views and counts. Fires inside that [StageSeq, MaintSeq) backlog
		// are impossible — each deferred window carries a no-fire proof.
		from := c.StageSeq - mt.logBase
		if !mt.stageLeaf(c, from, fire) {
			mt.refreshLeafBounds(c)
		}
		// Fired leaves keep stale bounds for now; the post-drain refresh of
		// every fired subtree (and its ancestor chain) restores exactness.
		return
	}
	left, right := c.Children()
	mt.routeNode(left, fire)
	mt.routeNode(right, fire)
	mt.pullUp(c)
	c.MaintSeq = end
}

// refreshLeafBounds settles a leaf's routing bounds to their exact values
// for its current status and counts (sentinels on the side the leaf does
// not occupy). Valid only when the leaf is current through the log.
func (mt *Maintainer) refreshLeafBounds(c *celltree.Cell) {
	c.ElimSlack = slackNegInf
	c.RepIn = repInfPos
	if c.Empty {
		return
	}
	switch c.Status {
	case celltree.Eliminated:
		c.ElimSlack = mt.nAlive - c.OutCount
	case celltree.Reported:
		c.RepIn = c.InCount
	}
}

// pullUp recomputes an internal node's bounds from its children (max of
// revival slacks, min of coverage counts — each the conservative fold).
func (mt *Maintainer) pullUp(c *celltree.Cell) {
	left, right := c.Children()
	c.ElimSlack = max(left.ElimSlack, right.ElimSlack)
	c.RepIn = min(left.RepIn, right.RepIn)
}

// pullUpChain re-pulls bounds from c up to the root. Used after a fired
// subtree is refreshed post-drain: every ancestor on the chain was descended
// through (a deferral would have proven the fire impossible), so both
// children of each chain node hold settled bounds by the time this runs.
func (mt *Maintainer) pullUpChain(c *celltree.Cell) {
	end := mt.logBase + len(mt.log)
	for ; c != nil; c = c.Parent() {
		mt.pullUp(c)
		c.MaintSeq = end
	}
}

// refreshSubtree settles the routing bounds of every node under c to exact
// values and marks the subtree current. Valid only once every leaf below is
// current through the log (post-drain fired subtrees, compaction, init).
func (mt *Maintainer) refreshSubtree(c *celltree.Cell) {
	if c.IsLeaf() {
		mt.refreshLeafBounds(c)
		c.MaintSeq = mt.logBase + len(mt.log)
		return
	}
	left, right := c.Children()
	mt.refreshSubtree(left)
	mt.refreshSubtree(right)
	mt.pullUp(c)
	c.MaintSeq = mt.logBase + len(mt.log)
}

// pushFired reactivates and pushes a drain's fired leaves in tree-leaf
// order — the order the historical full-sweep push used, which the
// round-robin strategy's cursor evolution is sensitive to — without
// enumerating the whole tree: the bucket's cells are sorted by their
// root-to-leaf path (left before right, lexicographic). Paths are built by
// parent-pointer walks, not ID arithmetic, which wraps past depth 62.
func (mt *Maintainer) pushFired(cells []*celltree.Cell) {
	if len(cells) > 1 {
		type keyed struct {
			leaf *celltree.Cell
			path []byte
		}
		ks := make([]keyed, len(cells))
		for i, c := range cells {
			ks[i] = keyed{leaf: c, path: leafPath(c, nil)}
		}
		sort.Slice(ks, func(a, b int) bool {
			return bytes.Compare(ks[a].path, ks[b].path) < 0
		})
		for i := range ks {
			cells[i] = ks[i].leaf
		}
	}
	for _, leaf := range cells {
		mt.run.tr.Reactivate(leaf)
		if !mt.run.seq.verify(leaf) {
			mt.run.queue.Push(leaf, mt.run.priority(leaf))
		}
	}
}

// leafPath appends c's root-to-leaf turn sequence (0 = left/outside child,
// 1 = right/inside child) to dst and returns it.
func leafPath(c *celltree.Cell, dst []byte) []byte {
	start := len(dst)
	for p := c.Parent(); p != nil; c, p = p, p.Parent() {
		left, _ := p.Children()
		if c == left {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
		}
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// settleAll brings every leaf current through the end of the log, refreshes
// every bound, and truncates the log (compaction). Deferral proofs cover
// every event they skip, so settling can never fire a re-verification; the
// fire callback panics to make that invariant an assertion instead of an
// assumption. The invariant tests also call this to materialize deferred
// per-leaf state before auditing payloads. Safe (a bounds refresh and
// log reset only) when routing is disabled, where every leaf is already
// current after each batch.
func (mt *Maintainer) settleAll() {
	end := mt.logBase + len(mt.log)
	mt.leavesBuf = mt.run.tr.Leaves(nil, mt.leavesBuf[:0])
	for _, leaf := range mt.leavesBuf {
		if leaf.StageSeq >= end {
			continue
		}
		mt.stageLeaf(leaf, leaf.StageSeq-mt.logBase, settleFired)
	}
	mt.refreshSubtree(mt.run.tr.Root)
	mt.logBase = end
	mt.log = mt.log[:0]
}

// settleFired is settleAll's fire callback: unreachable when the routing
// bounds are sound.
func settleFired(int, *celltree.Cell) {
	panic("core: deferred maintenance event fired at settle; routing bounds are unsound")
}
