package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestDotRowsBitIdenticalToDot pins the kernel contract the indexed
// top-k engine's byte-identity rests on: DotRows over a flat row-major
// matrix returns, for every row, the exact bits Vector.Dot produces on
// the same values — across dimensionalities that exercise the unrolled
// pairs, the 4-wide inner loop, and the scalar tails.
func TestDotRowsBitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
		for _, n := range []int{1, 2, 3, 7, 64, 65, 130} {
			flat := make([]float64, n*d)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			w := make(Vector, d)
			for j := range w {
				w[j] = rng.NormFloat64()
			}
			out := make([]float64, n)
			DotRows(flat, d, w, out)
			for r := 0; r < n; r++ {
				want := w.Dot(Vector(flat[r*d : (r+1)*d]))
				if math.Float64bits(out[r]) != math.Float64bits(want) {
					t.Fatalf("d=%d n=%d row %d: DotRows=%x Dot=%x", d, n, r,
						math.Float64bits(out[r]), math.Float64bits(want))
				}
			}
		}
	}
}

// TestDotRowsBoundMonotone checks the upper-bound property the layered
// index's early termination relies on: for non-negative weights, the
// kernel's score of a componentwise maxima row is >= the kernel's score
// of every row it was widened from, in float arithmetic, with no
// epsilon slack.
func TestDotRowsBoundMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(8)
		n := 1 + rng.Intn(100)
		flat := make([]float64, n*d)
		for i := range flat {
			flat[i] = rng.Float64()
		}
		max := make([]float64, d)
		copy(max, flat[:d])
		RowMax(flat[d:], d, max)
		w := make(Vector, d)
		for j := range w {
			w[j] = rng.Float64()
		}
		out := make([]float64, n)
		DotRows(flat, d, w, out)
		bound := Vector(max).Dot(w)
		for r, sc := range out {
			if sc > bound {
				t.Fatalf("trial %d row %d: score %v above maxima bound %v", trial, r, sc, bound)
			}
		}
	}
}

func TestRowMaxWidens(t *testing.T) {
	max := []float64{0.5, 0.5}
	RowMax([]float64{0.1, 0.9, 0.7, 0.2}, 2, max)
	if max[0] != 0.7 || max[1] != 0.9 {
		t.Fatalf("RowMax = %v, want [0.7 0.9]", max)
	}
}

// TestRowMaxValidates pins the length contract: a ragged trailing partial
// row or a mis-sized bound vector must panic like DotRows does, not be
// silently ignored (a dropped tail would leave the layer bound unsound for
// whatever the caller meant it to cover).
func TestRowMaxValidates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: RowMax did not panic", name)
			}
		}()
		f()
	}
	mustPanic("ragged matrix", func() {
		RowMax([]float64{0.1, 0.9, 0.7}, 2, []float64{0, 0})
	})
	mustPanic("short bound", func() {
		RowMax([]float64{0.1, 0.9}, 2, []float64{0})
	})
	// Whole rows with a matching bound stay accepted, empty input included.
	RowMax(nil, 2, []float64{0, 0})
	RowMax([]float64{0.3, 0.4}, 2, []float64{0, 0})
	RowMax(nil, 0, nil)
}

// TestRowBoundZeroDimValidates is the regression test for the d == 0
// early return that used to run BEFORE the bound-length validation:
// callers passing a stale non-empty bound (or leftover matrix values)
// with d == 0 silently got no panic and no widening. The length checks
// now run first.
func TestRowBoundZeroDimValidates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: did not panic", name)
			}
		}()
		f()
	}
	mustPanic("RowMax stale bound at d=0", func() {
		RowMax(nil, 0, []float64{0.5})
	})
	mustPanic("RowMax leftover matrix at d=0", func() {
		RowMax([]float64{0.3}, 0, nil)
	})
	RowMax(nil, 0, nil) // the genuinely empty call stays accepted
}
