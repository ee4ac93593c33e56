package core

import (
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
// Each op (one event; a batch applies its ops one at a time) joins the
// log, and routeNode descends from the root. At each node it replays the
// node's pending log window against the bounds, classifying each op's
// halfspace against the node MBB (the Section 5.3 filter test lifted from
// leaves to subtree roots):
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
// Otherwise the descent recurses, left child first, and leaves it reaches
// settle their backlog through Maintainer.stageLeaf. Options.DisableRouting
// makes canDefer refuse every window, so the descent reaches every leaf:
// the full sweep is this same path with nothing deferred, which is why
// regions are byte-identical routing on or off. Routing changes when a
// leaf's bookkeeping is brought current, never what any leaf or drain
// computes. A deferral proof covers every op in its window, so only the
// newest op can fire a leaf, and only during its own descent: stageLeaf
// panics on a fire by an older op, and settleAll on any fire, rather than
// re-verify out of order.
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
// With Options.DisableRouting it always fails.
func (mt *Maintainer) canDefer(c *celltree.Cell) bool {
	if mt.opts.DisableRouting {
		return false
	}
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
// deferring wherever canDefer proves it safe, settling the leaves it cannot
// avoid and appending those the newest op fires to mt.fired.
func (mt *Maintainer) routeNode(c *celltree.Cell) {
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
		// Fired leaves keep stale bounds for now; the post-drain refresh of
		// every fired subtree (and its ancestor chain) restores exactness.
		if mt.stageLeaf(c, c.StageSeq-mt.logBase) {
			mt.fired = append(mt.fired, c)
		} else {
			mt.refreshLeafBounds(c)
		}
		return
	}
	left, right := c.Children()
	mt.routeNode(left)
	mt.routeNode(right)
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
		c.ElimSlack = mt.run.nU - c.OutCount
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

// settleAll brings every leaf current through the end of the log, refreshes
// every bound, frees the rows of the log's departures (every non-empty
// leaf has now staged them, so no pending view holds those rows) and
// truncates the log (compaction). It runs after an op has been applied, so
// every backlog it replays was deferred under a no-fire proof, the newest
// op included: a fire here panics, making that invariant an assertion
// instead of an assumption. The invariant tests also call this to
// materialize deferred per-leaf state before auditing payloads. With
// routing disabled every leaf is already current, so it only refreshes the
// bounds, frees the rows and resets the log.
func (mt *Maintainer) settleAll() {
	end := mt.logBase + len(mt.log)
	mt.leavesBuf = mt.run.tr.Leaves(nil, mt.leavesBuf[:0])
	for _, leaf := range mt.leavesBuf {
		if leaf.StageSeq < end && mt.stageLeaf(leaf, leaf.StageSeq-mt.logBase) {
			panic(unsoundDeferral)
		}
	}
	mt.refreshSubtree(mt.run.tr.Root)
	for _, op := range mt.log {
		if !op.arrive {
			mt.free = append(mt.free, op.idx)
		}
	}
	mt.logBase = end
	mt.log = mt.log[:0]
}

// unsoundDeferral is the panic of a deferred op firing a leaf:
// unreachable when the routing bounds are sound.
const unsoundDeferral = "core: deferred maintenance event fired a leaf; routing bounds are unsound"
