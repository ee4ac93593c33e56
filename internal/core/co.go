package core

import (
	"errors"
	"math"
	"sort"

	"mir/internal/geom"
	"mir/internal/topk"
)

// ErrNoSolution is returned when no product position satisfies the
// problem's coverage requirement (e.g. the m-impact region is empty
// within the search box).
var ErrNoSolution = errors.New("core: no feasible product position")

// COResult is the outcome of an influence-based cost optimization.
type COResult struct {
	// Point is the cost-optimal position.
	Point geom.Vector
	// Cost is the creation (or upgrade) cost at Point.
	Cost float64
	// Coverage is the number of users Point covers.
	Coverage int
	// Region is the m-impact region computed along the way.
	Region *Region
}

// SolveCO solves the influence-based cost optimization problem (Yang et
// al. [67], generalized to k >= 1 as per Section 5.5): find the cheapest
// position for a new product that covers at least m users. It computes
// the m-impact region with AA and then minimizes the cost over the
// region's cells, processing cells in ascending order of a bounding-box
// cost lower bound and pruning those that cannot beat the incumbent.
func SolveCO(inst *Instance, m int, cost Cost, opts Options) (*COResult, error) {
	region, err := AA(inst, m, opts)
	if err != nil {
		return nil, err
	}
	point, c, err := minCostOverRegion(region, cost, make(geom.Vector, inst.Dim))
	if err != nil {
		return nil, err
	}
	return &COResult{
		Point:    point,
		Cost:     c,
		Coverage: inst.CountCovering(point),
		Region:   region,
	}, nil
}

// SolveThresholdedIS solves the thresholded improvement-strategy problem
// (Section 5.5's second crossbreed): find the cheapest upgrade of product
// pIdx so that the upgraded product covers at least m users. Upgrades are
// monotone (p' dominates p), so the search is the m-impact region within
// the box [p, 1]^d, with top-k thresholds computed over the competitors
// P \ {p}.
func SolveThresholdedIS(products []geom.Vector, users []topk.UserPref, pIdx int, m int, cost Cost, opts Options) (*COResult, error) {
	sub, err := competitorInstance(products, users, pIdx)
	if err != nil {
		return nil, err
	}
	if err := sub.CheckM(m); err != nil {
		return nil, err
	}
	p := products[pIdx]
	box := upgradeBox(p)
	region, err := AAWithBox(sub, m, opts, box)
	if err != nil {
		return nil, err
	}
	point, c, err := minCostOverRegion(region, cost, p)
	if err != nil {
		return nil, err
	}
	return &COResult{
		Point:    point,
		Cost:     c,
		Coverage: sub.CountCovering(point),
		Region:   region,
	}, nil
}

// SolveCOBestFirst solves CO exactly without materializing the full
// m-impact region: cells are processed in ascending order of a cost lower
// bound, cells that cannot reach m covering users are eliminated, and a
// cell wholly covering m users yields a candidate (its cheapest point).
// Because the bound is monotone down the tree, the search proves
// optimality as soon as the cheapest remaining cell cannot beat the
// incumbent — typically after exploring only the low-cost fringe of the
// region. Exact, like SolveCO, but without the Region by-product.
func SolveCOBestFirst(inst *Instance, m int, cost Cost, opts Options) (*COResult, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	run := newRun(inst, geom.NewBox(inst.Dim, 0, 1), m, opts)
	run.mode = modeMinCost
	run.costFn = cost
	run.base = make(geom.Vector, inst.Dim)
	run.bestCost = math.Inf(1)
	run.seedRoot()
	run.drain()
	if run.bestPoint == nil {
		return nil, ErrNoSolution
	}
	return &COResult{
		Point:    run.bestPoint,
		Cost:     run.bestCost,
		Coverage: inst.CountCovering(run.bestPoint),
	}, nil
}

// minCostOverRegion minimizes cost.Eval(x - base) over the region's
// cells with lower-bound ordering and incumbent pruning.
func minCostOverRegion(region *Region, cost Cost, base geom.Vector) (geom.Vector, float64, error) {
	if region.IsEmpty() {
		return nil, 0, ErrNoSolution
	}
	order := make([]int, len(region.Cells))
	lbs := make([]float64, len(region.Cells))
	for i := range order {
		order[i] = i
		lbs[i] = cost.LowerBound(region.MBBs[i][0], base)
	}
	sort.Slice(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
	var best geom.Vector
	bestCost := 0.0
	for _, i := range order {
		if best != nil && lbs[i] >= bestCost {
			break // remaining cells cannot beat the incumbent
		}
		x, c, err := cost.MinOverCell(region.Cells[i], base)
		if err != nil {
			continue // numerically empty sliver
		}
		if best == nil || c < bestCost {
			best, bestCost = x, c
		}
	}
	if best == nil {
		return nil, 0, ErrNoSolution
	}
	return best, bestCost, nil
}

// AAWithBox runs AA over a restricted product-space box instead of
// [0,1]^d (used by the IS-style problems, whose search space is the part
// of product space dominating the product being upgraded).
func AAWithBox(inst *Instance, m int, opts Options, box *geom.Polytope) (*Region, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	run := newRun(inst, box, m, opts)
	// The specialized 2-D path reports regions that extend to the unit
	// box; with a restricted box it remains valid (reported parts are
	// intersected with the cell), so no special handling is needed.
	run.seedRoot()
	run.drain()
	return run.region(), nil
}

// upgradeBox returns [p, 1]^d.
func upgradeBox(p geom.Vector) *geom.Polytope {
	hi := make(geom.Vector, len(p))
	for i := range hi {
		hi[i] = 1
	}
	return geom.NewBoxCorners(p, hi)
}
