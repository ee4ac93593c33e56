package mir

import (
	"fmt"

	"mir/internal/core"
	"mir/internal/geom"
	"mir/internal/topk"
)

// CostModel is a convex, monotone cost for creating a product at given
// attribute values (CO) or upgrading a product by an increment vector
// (IS). Build one with L2, L1, or WeightedL2.
type CostModel struct {
	c core.Cost
}

// L2 is the Euclidean cost — the paper's default model.
func L2() CostModel { return CostModel{c: core.L2Cost{}} }

// L1 is the Manhattan cost, solved by linear programming.
func L1() CostModel { return CostModel{c: core.L1Cost{}} }

// WeightedL2 is a per-attribute weighted Euclidean cost
// sqrt(sum c_i·delta_i²); factors must be strictly positive.
func WeightedL2(factors []float64) (CostModel, error) {
	for i, f := range factors {
		if f <= 0 {
			return CostModel{}, fmt.Errorf("mir: cost factor %d is %g, want > 0", i, f)
		}
	}
	return CostModel{c: core.WeightedL2Cost{C: geom.Vector(factors)}}, nil
}

// Name identifies the cost model.
func (cm CostModel) Name() string { return cm.c.Name() }

// Eval returns the cost of an attribute (increment) vector.
func (cm CostModel) Eval(delta []float64) float64 { return cm.c.Eval(geom.Vector(delta)) }

// Placement is the answer to a cost-driven placement query.
type Placement struct {
	// Point is the recommended attribute vector (for upgrades, the
	// product's new position).
	Point []float64
	// Cost is the creation or upgrade cost of Point.
	Cost float64
	// Coverage is the number of users covered at Point.
	Coverage int
	// Region, when non-nil, is the impact region computed along the way.
	Region *Region
}

// CostOptimal solves the influence-based cost optimization problem (CO):
// the cheapest position for a new product that covers at least m users.
// Unlike prior work, it supports arbitrary per-user k values.
func (a *Analyzer) CostOptimal(m int, cost CostModel) (*Placement, error) {
	res, err := core.SolveCO(a.inst, m, cost.c, a.opts)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Placement{
		Point:    res.Point,
		Cost:     res.Cost,
		Coverage: res.Coverage,
		Region:   newRegion(res.Region),
	}, nil
}

// Upgrade is the answer to an improvement-strategy query.
type Upgrade struct {
	// Point is the upgraded product position (dominating the original).
	Point []float64
	// Cost is the upgrade cost spent.
	Cost float64
	// Coverage is the number of users covered after the upgrade.
	Coverage int
	// BaseCoverage is the coverage before the upgrade.
	BaseCoverage int
}

// Improve solves the improvement-strategies problem (IS): upgrade the
// product at productIndex so that it covers the maximum number of users,
// with the upgrade cost (of the attribute increments) not exceeding
// budget. The product's competitors are re-ranked without its old
// position. Exact, unlike the greedy heuristics of prior work.
//
// Improve builds its own preprocessing over the competitor set, so it is
// a standalone function rather than an Analyzer method.
func Improve(products [][]float64, users []User, productIndex int, budget float64, cost CostModel) (*Upgrade, error) {
	ps, us := convert(products, users)
	res, err := core.SolveIS(ps, us, productIndex, budget, cost.c, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Upgrade{
		Point:        res.Point,
		Cost:         res.Cost,
		Coverage:     res.Coverage,
		BaseCoverage: res.BaseCoverage,
	}, nil
}

// BudgetedCostOptimal solves the budgeted-CO crossbreed: create a new
// product with maximum coverage, subject to the creation cost not
// exceeding budget.
func (a *Analyzer) BudgetedCostOptimal(budget float64, cost CostModel) (*Placement, error) {
	res, err := core.SolveBudgetedCO(a.inst, budget, cost.c, a.opts)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Placement{
		Point:    res.Point,
		Cost:     res.Cost,
		Coverage: res.Coverage,
	}, nil
}

// CheapestUpgrade solves the thresholded-IS crossbreed: the cheapest
// upgrade of the product at productIndex whose upgraded version covers at
// least m users.
func CheapestUpgrade(products [][]float64, users []User, productIndex, m int, cost CostModel) (*Upgrade, error) {
	ps, us := convert(products, users)
	res, err := core.SolveThresholdedIS(ps, us, productIndex, m, cost.c, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Upgrade{
		Point:    res.Point,
		Cost:     res.Cost,
		Coverage: res.Coverage,
	}, nil
}

// convert deep-copies the public-API product rows and user weights into
// the internal representation. The engine retains these vectors for the
// lifetime of an Analyzer/Monitor (and aliases them into halfspaces and
// weight projections), so aliasing the caller's slices would let a
// post-construction mutation silently corrupt every later query.
func convert(products [][]float64, users []User) ([]geom.Vector, []topk.UserPref) {
	ps := make([]geom.Vector, len(products))
	for i, p := range products {
		ps[i] = append(make(geom.Vector, 0, len(p)), p...)
	}
	us := make([]topk.UserPref, len(users))
	for i, u := range users {
		us[i] = topk.UserPref{W: append(make(geom.Vector, 0, len(u.Weights)), u.Weights...), K: u.K}
	}
	return ps, us
}

// CostOptimalFast is CostOptimal without the Region by-product: a
// best-first, cost-directed search that explores only the cheap fringe of
// the m-impact region and proves optimality from its cost lower bounds.
// Exact, like CostOptimal, but not always faster. The best-first search
// runs on one goroutine, since its pruning depends on a global cost
// order, while CostOptimal builds the whole region on the multi-core
// frontier (Options.Workers) and then scans its cells. Which one wins
// depends on the input and the core count; measure both when the region
// itself is not needed.
func (a *Analyzer) CostOptimalFast(m int, cost CostModel) (*Placement, error) {
	res, err := core.SolveCOBestFirst(a.inst, m, cost.c, a.opts)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Placement{
		Point:    res.Point,
		Cost:     res.Cost,
		Coverage: res.Coverage,
	}, nil
}
