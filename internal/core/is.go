package core

import (
	"fmt"

	"mir/internal/celltree"
	"mir/internal/geom"
	"mir/internal/topk"
)

// ISResult is the outcome of an improvement-strategy (or budgeted-CO)
// computation.
type ISResult struct {
	// Point is the position maximizing coverage within budget.
	Point geom.Vector
	// Coverage is the number of users covered at Point.
	Coverage int
	// Cost is the (minimum) cost of reaching Point.
	Cost float64
	// BaseCoverage is the coverage of the unmodified base position (the
	// existing product for IS; the origin for budgeted CO).
	BaseCoverage int
	// Stats carries the arrangement counters of the search.
	Stats Stats
}

// SolveIS solves the improvement-strategies problem (Yang & Cai [66],
// solved exactly for the first time by the paper's Section 5.5): upgrade
// product pIdx so that it covers the maximum number of users, subject to
// the upgrade cost not exceeding budget. Upgrades are monotone, so the
// search space is the box [p, 1]^d; the top-k entry thresholds are
// computed against the competitor set P \ {p}.
func SolveIS(products []geom.Vector, users []topk.UserPref, pIdx int, budget float64, cost Cost, opts Options) (*ISResult, error) {
	sub, err := competitorInstance(products, users, pIdx)
	if err != nil {
		return nil, err
	}
	p := products[pIdx]
	return maxCoverage(sub, upgradeBox(p), p, budget, cost, opts)
}

// SolveBudgetedCO solves the budgeted cost-optimization crossbreed
// (Section 5.5): create a new product with maximum coverage subject to a
// creation budget. The base position is the origin.
func SolveBudgetedCO(inst *Instance, budget float64, cost Cost, opts Options) (*ISResult, error) {
	return maxCoverage(inst, geom.NewBox(inst.Dim, 0, 1), make(geom.Vector, inst.Dim), budget, cost, opts)
}

// competitorInstance builds the preprocessed instance over P \ {pIdx}.
func competitorInstance(products []geom.Vector, users []topk.UserPref, pIdx int) (*Instance, error) {
	if pIdx < 0 || pIdx >= len(products) {
		return nil, fmt.Errorf("core: product index %d out of range [0,%d)", pIdx, len(products))
	}
	// The product itself is left out of the instance, so validate it here.
	if j := firstNonFinite(products[pIdx]); j >= 0 {
		return nil, fmt.Errorf("%w: product %d attribute %d is %v", ErrNonFinite, pIdx, j, products[pIdx][j])
	}
	others := make([]geom.Vector, 0, len(products)-1)
	others = append(others, products[:pIdx]...)
	others = append(others, products[pIdx+1:]...)
	return NewInstance(others, users)
}

// maxCoverage runs the Section 5.5 max-coverage search: grow the
// arrangement over the search box, prioritize cells by known coverage,
// prune cells whose cheapest point exceeds the budget or whose coverage
// upper bound cannot beat the incumbent, and finalize cells once every
// user is decided for them.
func maxCoverage(inst *Instance, box *geom.Polytope, base geom.Vector, budget float64, cost Cost, opts Options) (*ISResult, error) {
	if budget < 0 {
		return nil, fmt.Errorf("core: negative budget %g", budget)
	}
	run := newRun(inst, box, 1, opts) // m is unused in max-coverage mode
	run.mode = modeMaxCov
	run.budget = budget
	run.costFn = cost
	run.base = base
	// Seed the incumbent with the base position itself (cost zero).
	run.bestPoint = base.Clone()
	run.bestCov = inst.CountCovering(base)
	run.bestCost = 0
	run.seedRoot()
	run.drain()
	return &ISResult{
		Point:        run.bestPoint,
		Coverage:     run.bestCov,
		Cost:         run.bestCost,
		BaseCoverage: inst.CountCovering(base),
		Stats:        treeStats(run.tr, run.st),
	}, nil
}

// pruneBudget eliminates the cell when even its cheapest point exceeds
// the budget: first the O(d) bounding-box bound, then the exact convex
// minimization (the paper computes "the minimum value of f() in c itself,
// not its MBB").
func (r *aaRun) pruneBudget(c *celltree.Cell) bool {
	const tol = 1e-9
	if r.costFn.LowerBound(c.MBBLo, r.base) > r.budget+tol {
		r.tr.Eliminate(c)
		return true
	}
	_, minCost, err := r.costFn.MinOverCell(c.Polytope(), r.base)
	if err != nil {
		r.tr.Eliminate(c) // numerically empty sliver
		return true
	}
	if minCost > r.budget+tol {
		r.tr.Eliminate(c)
		return true
	}
	return false
}

// pruneCost eliminates cells whose cost lower bound cannot beat the
// incumbent CO candidate.
func (r *aaRun) pruneCost(c *celltree.Cell) bool {
	if r.costFn.LowerBound(c.MBBLo, r.base) >= r.bestCost-1e-12 {
		r.tr.Eliminate(c)
		return true
	}
	return false
}

// finalize records a fully-decided cell as a coverage candidate: all
// users are decided for it, so every point of the cell covers exactly
// InCount users; the cheapest in-budget point is the representative.
func (r *aaRun) finalize(c *celltree.Cell) {
	if c.InCount > r.bestCov {
		point, minCost, err := r.costFn.MinOverCell(c.Polytope(), r.base)
		if err == nil && minCost <= r.budget+1e-9 {
			r.bestCov = c.InCount
			r.bestPoint = point
			r.bestCost = minCost
		}
	}
	r.tr.Report(c) // counts finalized candidates in the stats
}
