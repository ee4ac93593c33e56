package lp

// Cycling regression: Beale's classic example cycles forever under the
// textbook Dantzig entering rule with standard tie-breaking. The solver
// must detect the degenerate run, switch to Bland's rule at the named
// blandSwitchAfter threshold, and terminate at the true optimum.

import (
	"math"
	"testing"
)

// bealeLP is Beale's 1955 cycling example:
//
//	max 0.75 x1 − 150 x2 + 0.02 x3 − 6 x4
//	s.t. 0.25 x1 −  60 x2 − 0.04 x3 + 9 x4 <= 0
//	     0.50 x1 −  90 x2 − 0.02 x3 + 3 x4 <= 0
//	                              x3       <= 1
//
// Every basic feasible solution before the optimum is degenerate (both
// resource rows bind at the origin), which makes Dantzig's rule cycle.
// The optimum is 0.05 at x = (0.04, 0, 1, 0).
func bealeLP() (c []float64, A [][]float64, b []float64) {
	c = []float64{0.75, -150, 0.02, -6}
	A = [][]float64{
		{0.25, -60, -0.04, 9},
		{0.5, -90, -0.02, 3},
		{0, 0, 1, 0},
	}
	b = []float64{0, 0, 1}
	return
}

func TestBealeCycling(t *testing.T) {
	c, A, b := bealeLP()
	var w Workspace
	r := w.Maximize(c, A, b)
	if r.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", r.Status)
	}
	if !almostEqual(r.Obj, 0.05, 1e-9) {
		t.Fatalf("obj = %v, want 0.05", r.Obj)
	}
	want := []float64{0.04, 0, 1, 0}
	for j, v := range want {
		if !almostEqual(r.X[j], v, 1e-9) {
			t.Fatalf("x[%d] = %v, want %v (x=%v)", j, r.X[j], v, r.X)
		}
	}
	// The run must actually have tripped the anti-cycling switchover:
	// fewer pivots than the Bland threshold would mean the example no
	// longer forces degeneracy and the regression test tests nothing.
	if int(w.Counters.Pivots) <= blandSwitchAfter(len(b), len(c)) {
		t.Fatalf("only %d pivots; Beale's example should exceed the Bland threshold %d",
			w.Counters.Pivots, blandSwitchAfter(len(b), len(c)))
	}
}

// TestBlandThresholdShared pins the named constant's value: the
// threshold is the single tunable behind the primal entering rule's
// switch to Bland's rule.
func TestBlandThresholdShared(t *testing.T) {
	if got := blandSwitchAfter(3, 4); got != degenerateRunFactor*(3+4) {
		t.Fatalf("blandSwitchAfter(3,4) = %d, want %d", got, degenerateRunFactor*7)
	}
}

// TestBealeUnderFeaser drives the same degenerate geometry through the
// dual-form Feaser (every pivot there is degenerate by construction) as a
// termination sanity check.
func TestBealeUnderFeaser(t *testing.T) {
	// Rows of Beale's polytope as >= constraints: -A_i·x >= -b_i.
	c, A, b := bealeLP()
	_ = c
	ws := make([][]float64, len(A))
	ts := make([]float64, len(A))
	for i, row := range A {
		neg := make([]float64, len(row))
		for j, v := range row {
			neg[j] = -v
		}
		ws[i] = neg
		ts[i] = -b[i]
	}
	var f Feaser
	feas, ok := f.FeasibleGE(4, ws, ts)
	if !ok || !feas {
		t.Fatalf("Beale polytope: feasible=%v ok=%v, want true,true (origin is a point)", feas, ok)
	}
	if math.IsNaN(float64(f.Counters.Pivots)) || f.Counters.Pivots < 0 {
		t.Fatalf("bad pivot counter %d", f.Counters.Pivots)
	}
}
