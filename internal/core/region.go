package core

import (
	"mir/internal/celltree"
	"mir/internal/geom"
)

// Region is the mIR output: the maximal region of product space where any
// product covers at least m users, represented as a union of convex cells.
// Cells from arrangement-based algorithms are interior-disjoint; NVE's
// cells may overlap (their union is still exactly R).
type Region struct {
	Dim   int
	M     int
	Cells []*geom.Polytope
	// MBBs holds each cell's cached bounding box ([0] = lower corner,
	// [1] = upper), parallel to Cells; used for cost-bound pruning in the
	// CO adaptation. Nil for NVE results.
	MBBs  [][2]geom.Vector
	Stats Stats
	// Sched carries the frontier scheduler's execution profile when some
	// drain ran with more than one worker (nil otherwise, and for non-AA
	// algorithms). Its values are scheduling-sensitive and excluded from
	// the determinism contract the rest of the Region obeys.
	Sched *SchedStats
}

// Contains reports whether point p lies in the region (in at least one
// cell).
func (r *Region) Contains(p geom.Vector) bool {
	for _, c := range r.Cells {
		if c.ContainsPoint(p) {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the region has no cells.
func (r *Region) IsEmpty() bool { return len(r.Cells) == 0 }

// Area2D returns the region's area for two-dimensional instances by
// clipping each cell against the unit square; it panics for other
// dimensionalities. Overlapping cells (NVE) would be double counted, so
// this is intended for arrangement-based results.
func (r *Region) Area2D() float64 {
	if r.Dim != 2 {
		panic("core: Area2D requires d=2")
	}
	a := 0.0
	for _, c := range r.Cells {
		a += geom.ClipPolytope2D(c, 0, 1).Area()
	}
	return a
}

// regionFromTree collects reported leaves into a Region and merges stats.
func regionFromTree(tr *celltree.Tree, m int, st Stats) *Region {
	st.Cells = tr.Stats.CellsCreated
	st.Splits = tr.Stats.Splits
	st.ContainmentTests += tr.Stats.ContainmentTests
	st.FastTests = tr.Stats.FastTests
	st.Reported = tr.Stats.Reported
	st.Eliminated = tr.Stats.Eliminated
	st.PruneLPTests = tr.Stats.PruneLPTests
	st.PrunedRows = tr.Stats.PrunedRows
	st.RoutedLeaves = tr.Stats.RoutedLeaves
	st.SkippedSubtrees = tr.Stats.SkippedSubtrees
	st.TouchedFrontier = tr.Stats.TouchedFrontier
	// +=, not =: the hull-membership LPs ran core-side and are already in
	// st; the tree's counters add the classification and redundancy solves.
	st.addLP(tr.Stats.LP)
	reg := &Region{Dim: tr.Dim, M: m, Stats: st}
	for _, leaf := range tr.ReportedLeaves() {
		// FullPolytope, not Polytope: the exported H-representation is the
		// raw split history, independent of the arrangement's internal
		// redundancy pruning.
		reg.Cells = append(reg.Cells, leaf.FullPolytope())
		reg.MBBs = append(reg.MBBs, [2]geom.Vector{leaf.MBBLo, leaf.MBBHi})
	}
	return reg
}
