// Package mir computes m-impact regions and solves standing top-k
// influence problems over multi-attribute product sets, implementing
//
//	Bo Tang, Kyriakos Mouratidis, Mingji Han.
//	"On m-Impact Regions and Standing Top-k Influence Problems."
//	SIGMOD 2021.
//
// # Model
//
// Products have d attributes in [0,1] (larger is better). A user is a
// preference vector w on the unit simplex plus a personal result size k;
// the suitability of product p for the user is the weighted sum w·p, and
// the user "sees" the k highest-scoring products. A product covers a user
// when it belongs to her top-k result.
//
// # Queries
//
//   - ImpactRegion (mIR): the maximal region of product space where any
//     existing or hypothetical product covers at least m users.
//   - CostOptimal (CO): the cheapest position for a new product that
//     covers at least m users, for a convex cost model.
//   - Improve (IS): the upgrade of an existing product that maximizes
//     coverage within an upgrade budget.
//   - BudgetedCostOptimal and CheapestUpgrade: the two crossbreeds
//     (maximum coverage under a creation budget; cheapest upgrade
//     reaching a coverage target).
//
// All answers are exact (up to floating-point tolerance), computed by the
// paper's advanced algorithm (AA) over a halfspace-arrangement cell tree.
//
// # Usage
//
// For one-off queries use the package-level functions. For exploratory
// analysis — many queries over the same catalog and population, varying m
// or the cost model — build an Analyzer once; it caches the all-top-k
// preprocessing:
//
//	an, err := mir.NewAnalyzer(products, users)
//	region, err := an.ImpactRegion(m)
//	placement, err := an.CostOptimal(m, mir.L2())
package mir

import (
	"fmt"

	"mir/internal/core"
	"mir/internal/geom"
)

// User is a member of the population: a preference weight per product
// attribute and the size k of the top-k result the user considers.
// Weights must be finite and non-negative and must not all be zero
// (NewAnalyzer, NewMonitor and UserArrived reject others); they are
// expected to sum to 1.
type User struct {
	Weights []float64
	K       int
}

// Options tunes the algorithms. The zero value enables every optimization
// from the paper and uses every core; the Disable* switches are the
// paper's own ablations (Section 6.4) and exist for its figures.
type Options struct {
	// Workers caps the engine's parallel execution layer: the all-top-k
	// preprocessing, instance construction, and the impact-region build,
	// whose workers process disjoint arrangement cells concurrently from
	// one shared priority queue. CostOptimalFast, the budgeted searches
	// and the RoundRobin strategy search on one goroutine at any setting.
	// 0 (the default) uses every core (runtime.GOMAXPROCS); 1 runs
	// everything on the caller's goroutine in strict best-first order
	// (ablations and the EXPERIMENTS.md numbers were measured that way).
	// Regions, placements, coverage counts and every Stats counter except
	// MaxFrontier are identical for every setting.
	Workers int
	// Strategy selects which pending user group is opened first when a
	// cell remains undecided; see the Strategy constants.
	Strategy Strategy
	// DisableFastTests turns off the bounding-box filter-and-refine tests.
	DisableFastTests bool
	// DisableInnerGroupProcessing classifies group members one by one.
	DisableInnerGroupProcessing bool
	// Disable2DSpecialization forces the generic insertion path for d = 2.
	Disable2DSpecialization bool
	// DisableGrouping treats every user as a singleton group.
	DisableGrouping bool
}

// Strategy selects AA's group-insertion order.
type Strategy int

const (
	// LargestFirst is the paper's strategy and the default.
	LargestFirst Strategy = iota
	// SmallestFirst exists for ablation studies.
	SmallestFirst
	// RoundRobin exists for ablation studies.
	RoundRobin
)

func (o *Options) toCore() core.Options {
	if o == nil {
		return core.Options{}
	}
	return core.Options{
		Workers:           o.Workers,
		GroupChoice:       core.GroupChoice(o.Strategy),
		DisableFastTest:   o.DisableFastTests,
		DisableInnerGroup: o.DisableInnerGroupProcessing,
		Disable2D:         o.Disable2DSpecialization,
		DisableGrouping:   o.DisableGrouping,
	}
}

// Analyzer holds a preprocessed product catalog and user population,
// ready to answer impact queries. Preprocessing computes every user's
// top-k-th product (the all-top-k step) once; individual queries reuse
// it.
//
// An Analyzer is safe for concurrent use: the preprocessed instance is
// read-only after construction, every query builds its own arrangement
// cell tree, and the shared LP scratch state is pooled per goroutine.
// Queries may themselves run multi-core (see Options.Workers).
type Analyzer struct {
	inst *core.Instance
	opts core.Options
}

// NewAnalyzer validates the inputs and runs the all-top-k preprocessing.
// Products are rows of attribute values, normally in [0,1]; users supply
// simplex weights of the same dimensionality and k between 1 and
// len(products). A NaN or ±Inf attribute or weight, a negative weight,
// or a user whose weights are all zero is an error. Products outside
// [0,1]^d are accepted and set the users' thresholds like any other, but
// impact regions are computed over [0,1]^d.
//
// The inputs are deep-copied: callers may mutate or reuse their slices
// after NewAnalyzer returns without corrupting the Analyzer.
func NewAnalyzer(products [][]float64, users []User, opts *Options) (*Analyzer, error) {
	ps, us := convert(products, users)
	co := opts.toCore()
	inst, err := core.NewInstanceOpts(ps, us, co)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Analyzer{inst: inst, opts: co}, nil
}

// NumProducts returns the catalog size.
func (a *Analyzer) NumProducts() int { return len(a.inst.Products) }

// NumUsers returns the population size.
func (a *Analyzer) NumUsers() int { return len(a.inst.Users) }

// Dim returns the number of product attributes.
func (a *Analyzer) Dim() int { return a.inst.Dim }

// Coverage returns how many users a (hypothetical) product at the given
// attribute vector would cover.
func (a *Analyzer) Coverage(point []float64) int {
	return a.inst.CountCovering(geom.Vector(point))
}

// Groups returns grouping statistics: the number of distinct top-k-th
// products across the population and the average users per group.
func (a *Analyzer) Groups() (num int, avgSize float64) {
	gs := a.inst.GroupStats()
	return gs.NumGroups, gs.AvgSize
}

// ImpactRegion computes the m-impact region: the maximal part of product
// space where any product covers at least m users.
func (a *Analyzer) ImpactRegion(m int) (*Region, error) {
	reg, err := core.AA(a.inst, m, a.opts)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return newRegion(reg), nil
}

// ImpactRegion is the one-shot form of Analyzer.ImpactRegion.
func ImpactRegion(products [][]float64, users []User, m int) (*Region, error) {
	a, err := NewAnalyzer(products, users, nil)
	if err != nil {
		return nil, err
	}
	return a.ImpactRegion(m)
}
