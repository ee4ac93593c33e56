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
// attribute (weights should be non-negative and sum to 1) and the size k
// of the top-k result the user considers.
type User struct {
	Weights []float64
	K       int
}

// Options tunes the algorithms. The zero value enables every optimization
// from the paper, uses every core, and is the right choice outside of
// benchmarking.
type Options struct {
	// Workers caps the engine's parallel execution layer: the all-top-k
	// preprocessing, instance construction, and AA's concurrent batch
	// classification of pending user groups against arrangement cells.
	// 0 (the default) uses every core (runtime.GOMAXPROCS); 1 reproduces
	// the original single-threaded execution exactly (ablations and the
	// EXPERIMENTS.md numbers were measured that way). Regions, placements,
	// and coverage counts are identical for every setting.
	Workers int
	// Shards pre-splits product space into 2^j disjoint axis-aligned
	// boxes (the largest power of two <= Shards) and runs a fully
	// independent impact-region build per box: its own arrangement,
	// scheduler, and stats, with the box's halfspace set prescreened by
	// banded corner bounds so a shard only classifies halfspaces whose
	// boundary can intersect its box. Shard regions concatenate in
	// shard-ID order. 0 or 1 (the default) selects the single-tree build.
	// Sharding applies to one-shot region computation (ImpactRegion and
	// the queries built on it); Monitor maintenance always builds
	// single-tree.
	//
	// For a fixed shard count the result is byte-identical for every
	// Workers setting, and Shards <= 1 is byte-identical to the unsharded
	// build. Across shard counts the region covers exactly the same point
	// set, but its cell decomposition differs (shard boundaries are
	// midplane cuts the unsharded arrangement never makes).
	Shards int
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
	// DisableRedundancyPruning turns off the arrangement's split-time
	// redundancy elimination of cell H-representations. The computed region
	// is identical either way; the switch exists for benchmarking.
	DisableRedundancyPruning bool
	// DisableWarmStart turns off warm-started LP solving: every feasibility
	// and redundancy solve cold-starts instead of re-entering the parent
	// cell's simplex basis. Warm starts change only where the simplex search
	// begins, never what it answers — regions and all stats except the pivot
	// counters are identical either way; the switch exists for benchmarking.
	DisableWarmStart bool
	// DisableKernels turns off the blocked numeric kernels
	// (internal/kern) everywhere the engine threads them: the pivot
	// eliminations inside every LP solve, the layered index's batched
	// scoring and bound maintenance, and the shard prescreen's band
	// construction. The scalar paths selected instead are the verbatim
	// historical loops, and the kernels reproduce them bit for bit —
	// so unlike every other Disable* switch this one changes NOTHING
	// observable: regions, placements, and every stats counter (pivot
	// counts included) are byte-identical either way; only wall time
	// moves. The switch exists for benchmarking and the differential
	// property tests.
	DisableKernels bool
	// DisableTopKIndex turns off the layered all-top-k product index: the
	// preprocessing falls back to the skyband-pruned full scan and a
	// Monitor's UserArrived recomputes thresholds by scanning every
	// product. The index changes only which products get scored, never
	// the selection — every user's top-k-th product (identity and score)
	// is byte-identical either way; the switch exists for benchmarking.
	DisableTopKIndex bool
	// DisableRouting turns off MBB-routed incremental maintenance on the
	// dynamic path (Monitor): every arrival/departure falls back to a full
	// sweep over the arrangement's leaves instead of a pruned descent that
	// skips subtrees the event provably cannot affect. Routing changes only
	// when per-leaf bookkeeping is brought current, never what any
	// re-verification computes — maintained regions are byte-identical
	// either way for every worker count; the switch exists for
	// benchmarking.
	DisableRouting bool
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
		Shards:            o.Shards,
		GroupChoice:       core.GroupChoice(o.Strategy),
		DisableFastTest:   o.DisableFastTests,
		DisableInnerGroup: o.DisableInnerGroupProcessing,
		Disable2D:         o.Disable2DSpecialization,
		DisableGrouping:   o.DisableGrouping,
		DisablePruning:    o.DisableRedundancyPruning,
		DisableWarmStart:  o.DisableWarmStart,
		DisableKernels:    o.DisableKernels,
		DisableTopKIndex:  o.DisableTopKIndex,
		DisableRouting:    o.DisableRouting,
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
// Products are rows of attribute values in [0,1]; users supply simplex
// weights of the same dimensionality and k between 1 and len(products).
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
