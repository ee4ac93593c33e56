package geom

import (
	"testing"

	"mir/internal/lp"
)

// TestToleranceOrdering pins the relationship between the package's
// numerical constants, which the correctness argument in each doc comment
// depends on: solver pivot noise (lp.Eps) must sit far below the geometric
// classification slab (ClassifyTol), with the redundancy-elimination
// margins strictly in between (reduceLPTol) or below (reduceBoxTol).
func TestToleranceOrdering(t *testing.T) {
	if ClassifyTol < 100*lp.Eps {
		t.Fatalf("ClassifyTol=%g must be at least 100x lp.Eps=%g", ClassifyTol, lp.Eps)
	}
	if !(lp.Eps < reduceLPTol && reduceLPTol < ClassifyTol) {
		t.Fatalf("want lp.Eps(%g) < reduceLPTol(%g) < ClassifyTol(%g)",
			lp.Eps, reduceLPTol, ClassifyTol)
	}
	if reduceBoxTol >= lp.Eps {
		t.Fatalf("reduceBoxTol=%g must sit below lp.Eps=%g", reduceBoxTol, lp.Eps)
	}
}

// TestClassifyBoundaryStability drives Classify with halfspaces whose
// boundaries sit exactly on, or within solver-noise distance of, polytope
// faces. The relation must be decided by the ClassifyTol slab, not by
// which side of lp.Eps a pivot lands on: perturbing the threshold by
// amounts far below ClassifyTol never flips the answer.
func TestClassifyBoundaryStability(t *testing.T) {
	const d = 3
	box := NewBox(d, 0, 1)
	e0 := make(Vector, d)
	e0[0] = 1

	// Perturbations well inside the slab (up to ClassifyTol/2) in both
	// directions, including exact coincidence.
	deltas := []float64{0, lp.Eps, -lp.Eps, 10 * lp.Eps, -10 * lp.Eps,
		ClassifyTol / 2, -ClassifyTol / 2}
	for _, dl := range deltas {
		// Boundary on the lower face: the box satisfies x0 >= dl everywhere
		// up to slab thickness.
		if got := box.Classify(Halfspace{W: e0, T: dl}); got != Covers {
			t.Errorf("x0 >= %g vs unit box: got %v, want Covers", dl, got)
		}
		// Boundary on the upper face: only a sliver of the box satisfies
		// x0 >= 1+dl, which classification treats as measure zero.
		if got := box.Classify(Halfspace{W: e0, T: 1 + dl}); got != Excludes {
			t.Errorf("x0 >= %g vs unit box: got %v, want Excludes", 1+dl, got)
		}
		// Boundary through the interior: robustly Cuts.
		if got := box.Classify(Halfspace{W: e0, T: 0.5 + dl}); got != Cuts {
			t.Errorf("x0 >= %g vs unit box: got %v, want Cuts", 0.5+dl, got)
		}
	}

	// A polytope thinner than the slab classifies as Excludes against a
	// halfspace through it: boundary-thin slivers never count as cuts.
	sliver := box.With(Halfspace{W: e0, T: 1 - ClassifyTol/2})
	if got := sliver.Classify(Halfspace{W: e0, T: 1}); got != Excludes {
		t.Errorf("slab-thin polytope: got %v, want Excludes", got)
	}

	// An empty polytope classifies as Excludes regardless of the halfspace.
	neg := make(Vector, d)
	neg[0] = -1
	empty := box.With(Halfspace{W: e0, T: 2})
	if got := empty.Classify(Halfspace{W: neg, T: -0.5}); got != Excludes {
		t.Errorf("empty polytope: got %v, want Excludes", got)
	}
}

// TestReduceCellKeepsPointSet checks the redundancy-elimination exactness
// claim directly: with the box rows included in the output, the reduced
// representation admits exactly the same points as box ∩ raw rows.
func TestReduceCellKeepsPointSet(t *testing.T) {
	const d = 3
	lo := Vector{0.1, 0.2, 0.05}
	hi := Vector{0.6, 0.7, 0.55}
	hs := []Halfspace{
		{W: Vector{1, 1, 0}, T: 0.5},   // cuts the box
		{W: Vector{1, 0, 0}, T: 0.0},   // implied by lo[0] (box prescreen)
		{W: Vector{-1, -1, -1}, T: -5}, // implied far away (box prescreen)
		{W: Vector{2, 2, 0}, T: 0.9},   // implied by the first row (LP phase)
		{W: Vector{0, 1, -1}, T: -0.3}, // cuts the box
	}
	red, st, _ := ReduceCellBasis(d, hs, lo, hi, nil, nil, nil)
	if st.BoxDropped != 2 {
		t.Fatalf("BoxDropped = %d, want 2 (stats %+v)", st.BoxDropped, st)
	}
	if st.LPDropped != 1 {
		t.Fatalf("LPDropped = %d, want 1 (stats %+v)", st.LPDropped, st)
	}
	if want := 2*d + 2; len(red) != want {
		t.Fatalf("reduced to %d rows, want %d", len(red), want)
	}

	raw := &Polytope{Dim: d, Hs: append(NewBoxCorners(lo, hi).Hs, hs...)}
	got := &Polytope{Dim: d, Hs: red}
	pts := []Vector{
		{0.1, 0.2, 0.05}, {0.6, 0.7, 0.55}, {0.3, 0.3, 0.3},
		{0.1, 0.15, 0.5}, {0.2, 0.2, 0.5}, {0.12, 0.13, 0.4},
		{0.5, 0.2, 0.5}, {0.1, 0.7, 0.05},
	}
	for _, p := range pts {
		if raw.ContainsPoint(p) != got.ContainsPoint(p) {
			t.Errorf("point %v: raw containment %v, reduced %v",
				p, raw.ContainsPoint(p), got.ContainsPoint(p))
		}
	}
}
