package mir

import (
	"mir/internal/core"
	"mir/internal/geom"
)

// Region is an m-impact region: a union of convex cells in product space.
// Any point inside covers at least M users; any point outside covers
// fewer (the region is maximal).
type Region struct {
	reg *core.Region
}

func newRegion(reg *core.Region) *Region { return &Region{reg: reg} }

// M returns the coverage threshold the region was computed for.
func (r *Region) M() int { return r.reg.M }

// Dim returns the dimensionality of the product space.
func (r *Region) Dim() int { return r.reg.Dim }

// Contains reports whether the given attribute vector lies in the region,
// i.e. whether a product there would cover at least M users.
func (r *Region) Contains(point []float64) bool {
	return r.reg.Contains(geom.Vector(point))
}

// NumCells returns the number of convex cells forming the region.
func (r *Region) NumCells() int { return len(r.reg.Cells) }

// IsEmpty reports whether the region is empty (possible only in
// restricted search boxes; over the full product space the top corner
// always covers every user).
func (r *Region) IsEmpty() bool { return r.reg.IsEmpty() }

// Area returns the region's area for two-dimensional product spaces; it
// panics for other dimensionalities.
func (r *Region) Area() float64 { return r.reg.Area2D() }

// Cell describes one convex piece of the region.
type Cell struct {
	poly *geom.Polytope
	lo   geom.Vector
	hi   geom.Vector
}

// Cells returns the region's convex cells.
func (r *Region) Cells() []Cell {
	out := make([]Cell, len(r.reg.Cells))
	for i, c := range r.reg.Cells {
		out[i] = Cell{poly: c}
		if r.reg.MBBs != nil {
			out[i].lo = r.reg.MBBs[i][0]
			out[i].hi = r.reg.MBBs[i][1]
		}
	}
	return out
}

// Constraint is one linear face of a cell: the halfspace W·x >= T.
type Constraint struct {
	W []float64
	T float64
}

// Constraints returns the halfspaces whose intersection forms the cell
// (the H-representation; some constraints may be redundant).
func (c Cell) Constraints() []Constraint {
	out := make([]Constraint, len(c.poly.Hs))
	for i, h := range c.poly.Hs {
		out[i] = Constraint{W: h.W, T: h.T}
	}
	return out
}

// Contains reports whether the point lies in this cell.
func (c Cell) Contains(point []float64) bool {
	return c.poly.ContainsPoint(geom.Vector(point))
}

// BoundingBox returns the cell's minimum bounding box corners, or nil
// slices when unavailable.
func (c Cell) BoundingBox() (lo, hi []float64) { return c.lo, c.hi }

// AnyPoint returns some point of the cell (ok=false if the cell is
// numerically empty).
func (c Cell) AnyPoint() (point []float64, ok bool) {
	p, ok := c.poly.FeasiblePoint()
	return p, ok
}

// Stats exposes the work counters of the computation that produced the
// region (cells created, splits, geometric tests, early decisions). Every
// counter except MaxFrontier is identical for every Options.Workers
// setting.
type Stats struct {
	Cells            int
	Splits           int
	ContainmentTests int
	FastTests        int
	Reported         int
	Eliminated       int
	EarlyReported    int
	EarlyEliminated  int
	Iterations       int
	// Pivots and ColdSolves aggregate the simplex solvers' effort across
	// the run's classification, redundancy, and convex-hull LPs: pivots,
	// and solves (each starts from the slack basis).
	Pivots     int64
	ColdSolves int64
	// ScannedProducts and LayerPrunes profile the all-top-k index behind
	// the preprocessing and the Monitor's arrival path: product rows
	// actually scored, and index blocks skipped whole by the threshold
	// bound (LayerPrunes keeps its name from an earlier, layered index).
	// Like the counters above, both are deterministic for every worker
	// count.
	ScannedProducts int64
	LayerPrunes     int64
	// RoutedLeaves, SkippedSubtrees, and TouchedFrontier profile the
	// Monitor's routed incremental maintenance (zero outside maintained
	// runs): leaves actually visited by event application, subtrees (or
	// single leaves) skipped whole because the routing bounds proved no
	// decision below could flip, and leaves handed to re-verification.
	// RoutedLeaves per event is the locality metric of the routing
	// optimization: it collapses against the every-leaf sweep while the
	// maintained region stays byte-identical. All three merge by
	// summation and are deterministic for every worker count.
	RoutedLeaves    int
	SkippedSubtrees int
	TouchedFrontier int
	// CountDesyncs counts user removals the maintained arrangement could
	// not account for: the departing user was neither pending nor cleanly
	// classified on some leaf. It must stay zero; a nonzero value signals
	// cell counts drifting from the alive population.
	CountDesyncs int64
	// MaxFrontier profiles the schedule: the high-water mark of in-flight
	// cells. Unlike the counters above it is scheduling-sensitive: it
	// varies run to run at Workers > 1.
	MaxFrontier int
}

// Stats returns the computation counters.
func (r *Region) Stats() Stats {
	s := r.reg.Stats
	return Stats{
		Cells:            s.Cells,
		Splits:           s.Splits,
		ContainmentTests: s.ContainmentTests,
		FastTests:        s.FastTests,
		Reported:         s.Reported,
		Eliminated:       s.Eliminated,
		EarlyReported:    s.EarlyReported,
		EarlyEliminated:  s.EarlyEliminated,
		Iterations:       s.Iterations,
		Pivots:           s.Pivots,
		ColdSolves:       s.ColdSolves,
		ScannedProducts:  s.ScannedProducts,
		LayerPrunes:      s.LayerPrunes,
		RoutedLeaves:     s.RoutedLeaves,
		SkippedSubtrees:  s.SkippedSubtrees,
		TouchedFrontier:  s.TouchedFrontier,
		CountDesyncs:     s.CountDesyncs,
		MaxFrontier:      s.MaxFrontier,
	}
}

// SchedStats describes how the task-parallel frontier executed: worker
// count, frontier width, and the per-worker cell load. Every field except
// Workers varies run to run — the scheduler promises identical results,
// not identical schedules.
type SchedStats struct {
	Workers        int
	MaxFrontier    int
	PerWorkerCells []int
}

// Sched returns the frontier scheduler's execution profile, or nil when
// every drain of the region's computation ran at one worker.
func (r *Region) Sched() *SchedStats {
	s := r.reg.Sched
	if s == nil {
		return nil
	}
	per := append([]int(nil), s.PerWorkerCells...)
	return &SchedStats{Workers: s.Workers, MaxFrontier: s.MaxFrontier, PerWorkerCells: per}
}
