package mir

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveMostInfluential is the reference oracle: full |P|×|U| coverage
// counting plus a total sort, exactly the semantics MostInfluential
// promises (coverage descending, index ascending on ties).
func naiveMostInfluential(a *Analyzer, ps [][]float64, n int) []Influence {
	if n > len(ps) {
		n = len(ps)
	}
	if n <= 0 {
		return nil
	}
	infl := make([]Influence, len(ps))
	for pi, p := range ps {
		infl[pi] = Influence{ProductIndex: pi, Coverage: a.Coverage(p)}
	}
	sort.Slice(infl, func(x, y int) bool {
		if infl[x].Coverage != infl[y].Coverage {
			return infl[x].Coverage > infl[y].Coverage
		}
		return infl[x].ProductIndex < infl[y].ProductIndex
	})
	return infl[:n]
}

// TestMostInfluentialDifferential pins the index-accelerated coverage
// counting byte-identical to the naive scan: same products in the same
// order with the same counts. Duplicate products force heavy coverage
// ties, so the index-order-vs-scan-order distinction would surface
// immediately if the tie-break ever leaked evaluation order.
func TestMostInfluentialDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		d := 2 + trial%2
		nP := 80 + 60*trial
		ps, us := fixture(rng, nP, 14, d, 4)
		// Duplicate a block of products: identical rows score identically
		// for every user, so their coverages tie exactly.
		for i := 0; i < 10; i++ {
			dup := make([]float64, d)
			copy(dup, ps[i])
			ps = append(ps, dup)
		}
		a, err := NewAnalyzer(ps, us, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 3, len(ps), len(ps) + 5} {
			want := naiveMostInfluential(a, ps, n)
			got := a.MostInfluential(n)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d: %d results, want %d",
					trial, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d: result %d = %+v, want %+v",
						trial, n, i, got[i], want[i])
				}
			}
		}
	}
}
