// Package quadtree implements a quadtree branch-and-bound baseline for the
// influence-based cost-optimization problem (CO), standing in for the
// exact algorithm of Yang et al. [67] ("YZZL") that the paper compares
// against in Figure 14.
//
// Like the original, it partitions the product space into quads, prunes
// quads with influence and cost bounds, and resolves undecided leaf quads
// with an exact geometric computation. Where the original reduces leaves
// to Mulmuley's k-level construction, this implementation resolves them
// with a local halfspace arrangement — exact, and (as in the paper)
// asymptotically far more expensive than the mIR-based approach,
// especially as dimensionality grows.
package quadtree

import (
	"errors"
	"math"

	"mir/internal/celltree"
	"mir/internal/core"
	"mir/internal/geom"
	"mir/internal/par"
	"mir/internal/solver"
)

// ErrBudget is returned when the node budget is exhausted before the
// search completes (the analogue of YZZL "failing to terminate within a
// day" for d >= 5 in the paper).
var ErrBudget = errors.New("quadtree: node budget exhausted")

// Solver configures the baseline.
type Solver struct {
	// MinLeaf is the edge length below which an undecided quad is resolved
	// exactly by a local arrangement instead of being split further.
	MinLeaf float64
	// MaxNodes bounds the number of processed quads; 0 means unlimited.
	MaxNodes int
}

// DefaultSolver mirrors a practical YZZL configuration.
func DefaultSolver() Solver { return Solver{MinLeaf: 1.0 / 16, MaxNodes: 2_000_000} }

// Result is the baseline's answer.
type Result struct {
	Point geom.Vector
	Cost  float64
	// Nodes is the number of quads processed (the baseline's work metric).
	Nodes int
}

type quad struct {
	lo, hi geom.Vector
	costLB float64
}

// SolveCO finds the minimum-L2-cost position covering at least m users.
// It is exact up to the solver tolerances. The instance provides the
// influential halfspaces (built for each user's personal k; the original
// YZZL supports only k = 1, but the bounds are k-agnostic).
func (s Solver) SolveCO(inst *core.Instance, m int) (*Result, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	d := inst.Dim
	// Quads wait in a min-heap keyed by their cost lower bound.
	var h par.Queue[quad]
	h.Push(quad{lo: make(geom.Vector, d), hi: ones(d)}, 0)
	bestCost := math.Inf(1)
	var bestPoint geom.Vector
	nodes := 0

	for h.Len() > 0 {
		// Best-first by cost lower bound.
		q, _ := h.Pop()
		nodes++
		if s.MaxNodes > 0 && nodes > s.MaxNodes {
			return nil, ErrBudget
		}
		if q.costLB >= bestCost {
			continue
		}
		covering, crossing := s.countBounds(inst, q)
		if covering+crossing < m {
			continue // influence upper bound too small
		}
		if covering >= m {
			// The min-cost corner of the quad covers >= m users; it is the
			// cheapest point of the quad, hence optimal within it.
			if q.costLB < bestCost {
				bestCost = q.costLB
				bestPoint = q.lo.Clone()
			}
			continue
		}
		if edge(q) <= s.MinLeaf {
			pt, c, ok := s.resolveLeaf(inst, q, m, covering, bestCost)
			if ok && c < bestCost {
				bestCost = c
				bestPoint = pt
			}
			continue
		}
		for _, child := range split(q) {
			h.Push(child, child.costLB)
		}
	}
	if bestPoint == nil {
		return nil, core.ErrNoSolution
	}
	return &Result{Point: bestPoint, Cost: bestCost, Nodes: nodes}, nil
}

// countBounds returns how many users certainly cover the quad (their
// halfspace contains its min corner) and how many might (halfspace
// contains the max corner but not the min corner). Weights are
// non-negative, so the corners bound the score range over the quad.
func (s Solver) countBounds(inst *core.Instance, q quad) (covering, crossing int) {
	for _, h := range inst.HS {
		loScore := h.W.Dot(q.lo)
		if loScore >= h.T-geom.Eps {
			covering++
			continue
		}
		if h.W.Dot(q.hi) >= h.T-geom.Eps {
			crossing++
		}
	}
	return covering, crossing
}

// resolveLeaf resolves an undecided quad exactly: it builds the local
// arrangement of the halfspaces crossing the quad and minimizes the cost
// over cells that reach m covering users (the stand-in for YZZL's k-level
// module).
func (s Solver) resolveLeaf(inst *core.Instance, q quad, m, covering int, incumbent float64) (geom.Vector, float64, bool) {
	box := geom.NewBoxCorners(q.lo, q.hi)
	tr := celltree.New(box)
	if tr.Root.Status != celltree.Active {
		return nil, 0, false
	}
	tr.Root.InCount = covering
	var crossing []geom.Halfspace
	for _, h := range inst.HS {
		if h.W.Dot(q.lo) < h.T-geom.Eps && h.W.Dot(q.hi) >= h.T-geom.Eps {
			crossing = append(crossing, h)
		}
	}
	for _, h := range crossing {
		insertLocal(tr, tr.Root, h)
	}
	best := incumbent
	var bestPt geom.Vector
	for _, leaf := range tr.Leaves(nil, nil) {
		if leaf.Status != celltree.Active || leaf.InCount < m {
			continue
		}
		lb := leaf.MBBLo.Norm()
		if lb >= best {
			continue
		}
		pt, c, err := solver.MinNorm(leaf.Polytope())
		if err != nil {
			continue
		}
		if c < best {
			best = c
			bestPt = pt
		}
	}
	return bestPt, best, bestPt != nil
}

// insertLocal inserts h into the local arrangement (no early decisions:
// the baseline enumerates the full local arrangement, as the k-level
// reduction does).
func insertLocal(tr *celltree.Tree, c *celltree.Cell, h geom.Halfspace) {
	if c.IsLeaf() {
		if c.Status != celltree.Active {
			return
		}
		switch c.Classify(h, true) {
		case geom.Covers:
			c.InCount++
		case geom.Excludes:
			c.OutCount++
		case geom.Cuts:
			l, r := tr.SplitBy(c, h)
			if r.Status == celltree.Active {
				r.InCount++
			}
			if l.Status == celltree.Active {
				l.OutCount++
			}
		}
		return
	}
	left, right := c.Children()
	insertLocal(tr, left, h)
	insertLocal(tr, right, h)
}

// split cuts the quad into 2^d children at its center.
func split(q quad) []quad {
	d := len(q.lo)
	mid := make(geom.Vector, d)
	for i := range mid {
		mid[i] = (q.lo[i] + q.hi[i]) / 2
	}
	n := 1 << d
	out := make([]quad, 0, n)
	for mask := 0; mask < n; mask++ {
		lo := make(geom.Vector, d)
		hi := make(geom.Vector, d)
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				lo[i], hi[i] = mid[i], q.hi[i]
			} else {
				lo[i], hi[i] = q.lo[i], mid[i]
			}
		}
		out = append(out, quad{lo: lo, hi: hi, costLB: lo.Norm()})
	}
	return out
}

func edge(q quad) float64 { return q.hi[0] - q.lo[0] }

func ones(d int) geom.Vector {
	v := make(geom.Vector, d)
	for i := range v {
		v[i] = 1
	}
	return v
}
