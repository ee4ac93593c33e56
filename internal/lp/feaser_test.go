package lp

import (
	"math/rand"
	"testing"
)

// geFamily is one random system {x >= 0 : W_j·x >= T_j}.
type geFamily struct {
	n    int
	rows [][]float64
	ts   []float64
}

func randomGEFamily(rng *rand.Rand) geFamily {
	n := 2 + rng.Intn(4) // 2..5 variables
	m := 1 + rng.Intn(8) // 1..8 rows
	f := geFamily{n: n}
	for j := 0; j < m; j++ {
		f.rows = append(f.rows, randomRow(rng, n))
		f.ts = append(f.ts, randomThreshold(rng))
	}
	return f
}

func randomRow(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

func randomThreshold(rng *rand.Rand) float64 {
	// Mix signs so both feasible and infeasible systems appear; the
	// all-positive-threshold case (every row active at the origin) is the
	// common one in the geometry workloads.
	return rng.NormFloat64() * 2
}

// TestFeaserCountersAccount checks the accounting identities: every solve
// adds exactly one ColdSolves and no negative pivot count, and the
// per-solve deltas taken with Sub fold back with Add to the running
// totals.
func TestFeaserCountersAccount(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	var f Feaser
	var sum Counters
	for it := 0; it < 200; it++ {
		fam := randomGEFamily(rng)
		before := f.Counters
		f.FeasibleGE(fam.n, fam.rows, fam.ts)
		d := f.Counters.Sub(before)
		if d.ColdSolves != 1 || d.Pivots < 0 {
			t.Fatalf("it %d: solve accounted as %+v", it, d)
		}
		sum.Add(d)
	}
	if sum != f.Counters {
		t.Fatalf("Sub/Add round-trip: deltas sum to %+v, totals %+v", sum, f.Counters)
	}
	if f.Counters.Pivots == 0 {
		t.Fatal("200 random systems ran no pivots; the test exercised nothing")
	}
}
