package topk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mir/internal/geom"
)

// sameKth asserts bitwise equality of two KthResults: same product id and
// the exact same score bits.
func sameKth(t *testing.T, ctx string, got, want KthResult) {
	t.Helper()
	if got.Index != want.Index ||
		math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Fatalf("%s: indexed %+v (score bits %x) vs reference %+v (score bits %x)",
			ctx, got, math.Float64bits(got.Score), want, math.Float64bits(want.Score))
	}
}

// gridWeight draws strictly positive lattice weights normalized to the
// simplex — scores collide often, but no component is zero, so dominance
// still forces strict score order and every selection rule agrees.
func gridWeight(rng *rand.Rand, d int) geom.Vector {
	w := make(geom.Vector, d)
	s := 0.0
	for j := range w {
		w[j] = float64(1 + rng.Intn(4))
		s += w[j]
	}
	for j := range w {
		w[j] /= s
	}
	return w
}

// TestSearcherKthMatchesFullScan is the core byte-identity property: the
// indexed search must return the exact result of the naive full product
// scan — identity and score bits — across dimensionalities, every k, and
// sizes spanning one block to many superblocks.
func TestSearcherKthMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	check := func(ps []geom.Vector, d int) {
		t.Helper()
		s := NewSearcher(NewIndex(ps))
		for q := 0; q < 20; q++ {
			w := randomWeight(rng, d)
			k := 1 + rng.Intn(len(ps))
			sameKth(t, fmt.Sprintf("n=%d d=%d", len(ps), d), s.Kth(w, k), KthScore(ps, w, k))
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		d := 1 + rng.Intn(5)
		check(randomProducts(rng, n, d), d)
	}
	for _, n := range []int{1500, 5000} {
		for d := 2; d <= 5; d++ {
			check(randomProducts(rng, n, d), d)
		}
	}
}

// TestSearcherKthTieHeavy drives the indexed search through the tie-break
// branches: grid-valued attributes with forced exact duplicates, grid
// weights, and per-user heterogeneous k. The reference is the naive full
// scan; the skyband-pruned AllTopK must also agree (strictly positive
// weights make dominators strictly better, so the prune is exact here).
func TestSearcherKthTieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(200)
		d := 1 + rng.Intn(4)
		ps := gridProducts(rng, n, d, 3)
		for c := 0; c < n/4; c++ {
			ps[rng.Intn(n)] = ps[rng.Intn(n)].Clone()
		}
		ix := NewIndex(ps)
		s := NewSearcher(ix)
		users := make([]UserPref, 30)
		for i := range users {
			users[i] = UserPref{W: gridWeight(rng, d), K: 1 + (i*7)%minInt(19, n)}
		}
		naive := AllTopKWorkers(ps, users, 1)
		for ui, u := range users {
			want := KthScore(ps, u.W, u.K)
			sameKth(t, "ties/full-scan", s.Kth(u.W, u.K), want)
			sameKth(t, "ties/skyband", naive[ui], want)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestIndexAllTopKWorkersByteIdentical pins the satellite acceptance
// criterion: Instance-level results are byte-identical with the index on
// or off, for workers 1, 2, 4, and 8 — on a tie-heavy fixture with
// duplicate products and heterogeneous per-user k.
func TestIndexAllTopKWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	n := 1500
	ps := gridProducts(rng, n, 3, 4)
	for c := 0; c < n/5; c++ {
		ps[rng.Intn(n)] = ps[rng.Intn(n)].Clone()
	}
	users := make([]UserPref, 211)
	for i := range users {
		users[i] = UserPref{W: gridWeight(rng, 3), K: 1 + (i*7)%19}
	}
	want := AllTopKWorkers(ps, users, 1) // naive, sequential
	ix := NewIndex(ps)
	var statsAt1 SearchStats
	for _, workers := range []int{1, 2, 4, 8} {
		got, st := ix.AllTopKWorkers(users, workers)
		for ui := range want {
			if got[ui].Index != want[ui].Index ||
				math.Float64bits(got[ui].Score) != math.Float64bits(want[ui].Score) {
				t.Fatalf("workers=%d user %d: indexed %+v vs naive %+v",
					workers, ui, got[ui], want[ui])
			}
		}
		if workers == 1 {
			statsAt1 = st
		} else if st != statsAt1 {
			// Per-user searches are independent and the counters merge by
			// summation, so the totals must not depend on the fan-out.
			t.Fatalf("workers=%d: stats %+v differ from sequential %+v", workers, st, statsAt1)
		}
	}
}

// TestSearcherKthZeroAndNegativeWeights checks exactness where the naive
// skyband prune is NOT trusted: zero weight components make dominated
// products tie with their dominators. The indexed search must still
// equal the full scan bit for bit. Negative components void the block
// bounds, so the index rejects them (see TestIndexPanics and
// TestAtLeastNegativeWeights).
func TestSearcherKthZeroAndNegativeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(150)
		d := 2 + rng.Intn(3)
		ps := gridProducts(rng, n, d, 3)
		ix := NewIndex(ps)
		s := NewSearcher(ix)
		for q := 0; q < 10; q++ {
			w := randomWeight(rng, d)
			w[rng.Intn(d)] = 0 // ties across dominance become possible
			k := 1 + rng.Intn(n)
			sameKth(t, "zero-weight", s.Kth(w, k), KthScore(ps, w, k))
		}
	}
}

// FuzzIndexSearch differentially fuzzes the index against the full
// scans: for a seeded product set of up to 2000 rows at d in 1..6 or 8,
// optionally snapped to multiples of 1/grid (ties and exact duplicates),
// and non-negative weights with some zero components, Searcher.Kth must
// equal KthScore in identity and score bits, and AtLeast must return the
// full scan's predicate set at the k-th score and at a random product's
// score.
func FuzzIndexSearch(f *testing.F) {
	f.Add(int64(1), uint16(4), uint8(2), uint8(0))
	f.Add(int64(2), uint16(1999), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, dRaw uint8, gridRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%2000
		d := []int{1, 2, 3, 4, 5, 6, 8}[int(dRaw)%7]
		grid := float64(gridRaw % 9) // 0: continuous coordinates
		ps := randomProducts(rng, n, d)
		if grid > 0 {
			for _, p := range ps {
				for j := range p {
					p[j] = math.Round(p[j]*grid) / grid
				}
			}
		}
		s := NewSearcher(NewIndex(ps))
		for q := 0; q < 4; q++ {
			w := make(geom.Vector, d)
			for j := range w {
				if rng.Intn(4) > 0 {
					w[j] = rng.Float64()
				}
			}
			k := 1 + rng.Intn(n)
			ctx := fmt.Sprintf("n=%d d=%d grid=%v w=%v k=%d", n, d, grid, []float64(w), k)
			want := KthScore(ps, w, k)
			sameKth(t, ctx, s.Kth(w, k), want)
			for _, th := range []float64{want.Score, w.Dot(ps[rng.Intn(n)])} {
				got := s.AtLeast(w, th, nil)
				sort.Ints(got)
				if ref := naiveAtLeast(ps, w, th); !slices.Equal(got, ref) {
					t.Fatalf("%s t=%v: AtLeast %v, full scan %v", ctx, th, got, ref)
				}
			}
		}
	})
}

// TestIndexPartition checks the structural invariant of the build: the
// packed rows are a permutation of the products, and each row is a copy
// of its product's attributes.
func TestIndexPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	ps := randomProducts(rng, 5000, 3)
	ix := NewIndex(ps)
	if len(ix.ids) != len(ps) || len(ix.flat) != len(ps)*ix.dim {
		t.Fatalf("%d rows (%d values) for %d products", len(ix.ids), len(ix.flat), len(ps))
	}
	seen := make([]bool, len(ps))
	for r, id := range ix.ids {
		if seen[id] {
			t.Fatalf("product %d packed twice", id)
		}
		seen[id] = true
		for j, v := range ix.flat[r*ix.dim : (r+1)*ix.dim] {
			if math.Float64bits(v) != math.Float64bits(ps[id][j]) {
				t.Fatalf("row %d (product %d) attribute %d is %v, want %v", r, id, j, v, ps[id][j])
			}
		}
	}
}

func TestIndexPanics(t *testing.T) {
	ix := NewIndex([]geom.Vector{{0.5, 0.5}})
	s := NewSearcher(ix)
	expectPanic(t, "k=0", func() { s.Kth(geom.Vector{1, 0}, 0) })
	expectPanic(t, "k>|P|", func() { s.Kth(geom.Vector{1, 0}, 2) })
	expectPanic(t, "query dim", func() { s.Kth(geom.Vector{1}, 1) })
	expectPanic(t, "negative weight", func() { s.Kth(geom.Vector{0.5, -0.3}, 1) })
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func BenchmarkIndexedAllTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ps := randomProducts(rng, 100000, 4)
	users := make([]UserPref, 1000)
	for i := range users {
		users[i] = UserPref{W: randomWeight(rng, 4), K: 10}
	}
	ix := NewIndex(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.AllTopKWorkers(users, 0)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ps := randomProducts(rng, 100000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(ps)
	}
}
