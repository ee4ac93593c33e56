package topk

import (
	"fmt"
	"math"
	"math/rand"
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
// sizes spanning one block to many layers. Below layerBandRows an index
// is a single layer; the larger sizes build several bands, and at
// n=5000 and d <= 3 the peel reaches maxLayers, so its last layer is the
// capped tail.
func TestSearcherKthMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	check := func(ps []geom.Vector, d int) *Index {
		t.Helper()
		ix := NewIndex(ps)
		s := NewSearcher(ix)
		for q := 0; q < 20; q++ {
			w := randomWeight(rng, d)
			k := 1 + rng.Intn(len(ps))
			sameKth(t, fmt.Sprintf("n=%d d=%d", len(ps), d), s.Kth(w, k), KthScore(ps, w, k))
		}
		return ix
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		d := 1 + rng.Intn(5)
		check(randomProducts(rng, n, d), d)
	}
	for _, n := range []int{1500, 5000} {
		for d := 2; d <= 5; d++ {
			ix := check(randomProducts(rng, n, d), d)
			want := 3
			switch {
			case n == 5000 && d <= 3:
				want = maxLayers
			case n == 5000:
				want = 7
			}
			got := len(ix.layers)
			t.Logf("n=%d d=%d: %d layers", n, d, got)
			if got < want {
				t.Errorf("n=%d d=%d: %d layers, want at least %d", n, d, got, want)
			}
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

// TestIndexLayerPartition checks structural invariants of the build:
// layers partition the products, the first layer contains the whole
// skyline, and every row outside it has a dominator in an earlier-or-
// same layer (the banded peel keeps dominators at lower or equal depth).
func TestIndexLayerPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	ps := randomProducts(rng, 5000, 3)
	ix := NewIndex(ps)
	seen := make([]bool, len(ps))
	layerOf := make([]int, len(ps))
	for l, ly := range ix.layers {
		for _, id := range ly.ids {
			if seen[id] {
				t.Fatalf("product %d appears in two layers", id)
			}
			seen[id] = true
			layerOf[id] = l
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("product %d missing from every layer", id)
		}
	}
	for _, i := range Skyline(ps) {
		if layerOf[i] != 0 {
			t.Fatalf("skyline product %d landed in layer %d", i, layerOf[i])
		}
	}
	for id := range ps {
		if layerOf[id] == 0 {
			continue
		}
		best := -1
		for j := range ps {
			if j != id && ps[j].Dominates(ps[id]) && (best < 0 || layerOf[j] < best) {
				best = layerOf[j]
			}
		}
		if best < 0 || best > layerOf[id] {
			t.Fatalf("product %d in layer %d: closest dominator layer %d", id, layerOf[id], best)
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
