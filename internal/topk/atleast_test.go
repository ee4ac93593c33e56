package topk

import (
	"math/rand"
	"sort"
	"testing"

	"mir/internal/geom"
)

func randProducts(rng *rand.Rand, n, d int) []geom.Vector {
	ps := make([]geom.Vector, n)
	for i := range ps {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		ps[i] = v
	}
	return ps
}

func randWeight(rng *rand.Rand, d int) geom.Vector {
	w := make(geom.Vector, d)
	s := 0.0
	for j := range w {
		w[j] = rng.Float64() + 1e-3
		s += w[j]
	}
	for j := range w {
		w[j] /= s
	}
	return w
}

// naiveAtLeast is the reference predicate set, in ascending id order.
func naiveAtLeast(ps []geom.Vector, w geom.Vector, t float64) []int {
	var out []int
	for i, p := range ps {
		if w.Dot(p) >= t {
			out = append(out, i)
		}
	}
	return out
}

func TestAtLeastMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 17, 300, 1500} {
		for _, d := range []int{2, 4} {
			ps := randProducts(rng, n, d)
			ix := NewIndex(ps)
			s := NewSearcher(ix)
			for trial := 0; trial < 20; trial++ {
				w := randWeight(rng, d)
				// Thresholds spanning none..all of the product set.
				th := []float64{-1, 0.2, 0.5, 0.7, 2}
				for _, t0 := range th {
					got := append([]int(nil), s.AtLeast(w, t0, nil)...)
					sort.Ints(got)
					want := naiveAtLeast(ps, w, t0)
					if len(got) != len(want) {
						t.Fatalf("n=%d d=%d t=%g: got %d ids, want %d", n, d, t0, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d d=%d t=%g: id[%d]=%d, want %d", n, d, t0, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAtLeastNegativeWeights pins the weight contract of AtLeast on a
// multi-block index: w · maxima bounds a block only for w >= 0, so a
// negative component panics (the engine rejects such weights with
// core.ErrNegativeWeight), while a zero component is still answered with
// the exact predicate set.
func TestAtLeastNegativeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := randProducts(rng, 400, 3)
	ix := NewIndex(ps)
	s := NewSearcher(ix)
	expectPanic(t, "negative weight", func() { s.AtLeast(geom.Vector{0.5, -0.3, 0.8}, 0.1, nil) })
	expectPanic(t, "tiny negative weight", func() { s.AtLeast(geom.Vector{0, -1e-300, 1}, 0.1, nil) })
	w := geom.Vector{0.5, 0, 0.8}
	got := append([]int(nil), s.AtLeast(w, 0.1, nil)...)
	sort.Ints(got)
	want := naiveAtLeast(ps, w, 0.1)
	if len(got) != len(want) {
		t.Fatalf("zero weight: got %d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("zero weight: id[%d]=%d, want %d", i, got[i], want[i])
		}
	}
}

func TestAtLeastPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := randProducts(rng, 4000, 3)
	ix := NewIndex(ps)
	s := NewSearcher(ix)
	w := randWeight(rng, 3)
	s.Stats = SearchStats{}
	s.AtLeast(w, 0.9, nil)
	if s.Stats.LayerPrunes == 0 {
		t.Fatalf("high threshold over 4000 products pruned no blocks (scanned %d rows)", s.Stats.ScannedProducts)
	}
	if s.Stats.ScannedProducts >= int64(len(ps)) {
		t.Fatalf("scanned %d rows of %d: no block skipped", s.Stats.ScannedProducts, len(ps))
	}
}

func TestSelectTop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(7)) // heavy ties
		}
		for _, k := range []int{0, 1, n / 2, n, n + 5} {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			got := SelectTop(idx, scores, k)
			ref := make([]int, n)
			for i := range ref {
				ref[i] = i
			}
			sort.Slice(ref, func(a, b int) bool {
				if scores[ref[a]] != scores[ref[b]] {
					return scores[ref[a]] > scores[ref[b]]
				}
				return ref[a] < ref[b]
			})
			want := k
			if want > n {
				want = n
			}
			if want < 0 {
				want = 0
			}
			if len(got) != want {
				t.Fatalf("k=%d n=%d: got %d entries", k, n, len(got))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("k=%d n=%d: entry %d = %d, want %d", k, n, i, got[i], ref[i])
				}
			}
		}
	}
}
