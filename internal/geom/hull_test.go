package geom

import (
	"math/rand"
	"sort"
	"testing"
)

func TestExtremePoints1D(t *testing.T) {
	pts := []Vector{{0.5}, {0.1}, {0.9}, {0.3}, {0.9}}
	got := ExtremePoints(pts)
	sort.Ints(got)
	if len(got) != 2 || pts[got[0]][0] != 0.1 || pts[got[1]][0] != 0.9 {
		t.Errorf("ExtremePoints = %v", got)
	}

	same := []Vector{{0.4}, {0.4}, {0.4}}
	if got := ExtremePoints(same); len(got) != 1 {
		t.Errorf("identical points: got %v, want one representative", got)
	}
}

func TestExtremePoints2DSquare(t *testing.T) {
	pts := []Vector{
		{0, 0}, {1, 0}, {1, 1}, {0, 1}, // corners
		{0.5, 0.5}, {0.25, 0.75}, {0.9, 0.1}, // interior
	}
	got := ExtremePoints(pts)
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	for _, i := range got {
		if !want[i] {
			// Collinear/interior points may only appear if they lie on the
			// boundary; interior ones must not.
			t.Errorf("interior point %d reported extreme", i)
		}
		delete(want, i)
	}
	if len(want) != 0 {
		t.Errorf("missing corners: %v", want)
	}
}

func TestExtremePointsHigherDim(t *testing.T) {
	// Simplex corners in 3D plus the centroid: corners are extreme, the
	// centroid is not.
	pts := []Vector{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, 0},
		{0.25, 0.25, 0.25},
	}
	got := ExtremePoints(pts)
	sort.Ints(got)
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("ExtremePoints = %v, want [0 1 2 3]", got)
	}
}

func TestInConvexHull(t *testing.T) {
	tri := []Vector{{0, 0}, {1, 0}, {0, 1}}
	if !InConvexHull(Vector{0.25, 0.25}, tri) {
		t.Error("interior point not in hull")
	}
	if !InConvexHull(Vector{0.5, 0.5}, tri) {
		t.Error("edge midpoint not in hull")
	}
	if !InConvexHull(Vector{1, 0}, tri) {
		t.Error("vertex not in hull")
	}
	if InConvexHull(Vector{0.6, 0.6}, tri) {
		t.Error("outside point in hull")
	}
	if InConvexHull(Vector{0.5, 0.5}, nil) {
		t.Error("empty point set contains nothing")
	}
}

// TestHullInvariant checks conv(V) = conv(pts): every original point must be
// a convex combination of the reported extreme points, in dims 2..4 (the
// weight-space dimensionalities exercised by the paper's d = 3..5).
func TestHullInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		dim := 2 + rng.Intn(3)
		n := 5 + rng.Intn(20)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = make(Vector, dim)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		vIdx := ExtremePoints(pts)
		hull := make([]Vector, len(vIdx))
		for i, j := range vIdx {
			hull[i] = pts[j]
		}
		for i, p := range pts {
			if !InConvexHull(p, hull) {
				t.Errorf("trial %d (dim %d): point %d not in conv(V); |V|=%d",
					trial, dim, i, len(vIdx))
			}
		}
	}
}

// TestHullAgreement2D cross-checks the monotone-chain fast path against the
// LP-based method: the LP vertex set must be a subset of the chain's
// (the chain may retain collinear boundary points).
func TestHullAgreement2D(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(15)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = Vector{rng.Float64(), rng.Float64()}
		}
		chain := map[int]bool{}
		for _, i := range extreme2D(pts) {
			chain[i] = true
		}
		for _, i := range extremeLP(pts) {
			if !chain[i] {
				t.Errorf("trial %d: LP vertex %d missing from monotone chain", trial, i)
			}
		}
	}
}

func BenchmarkExtremePoints3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vector, 60)
	for i := range pts {
		pts[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtremePoints(pts)
	}
}
