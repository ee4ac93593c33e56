package mir

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveMostInfluential is the reference oracle: full |P|×|U| coverage
// counting through the given brute-force coverage scan, plus a total sort,
// exactly the semantics MostInfluential promises (coverage descending,
// index ascending on ties).
func naiveMostInfluential(coverage func([]float64) int, ps [][]float64, n int) []Influence {
	if n > len(ps) {
		n = len(ps)
	}
	if n <= 0 {
		return nil
	}
	infl := make([]Influence, len(ps))
	for pi, p := range ps {
		infl[pi] = Influence{ProductIndex: pi, Coverage: coverage(p)}
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
// order with the same counts, for an Analyzer and for a Monitor snapshot
// taken after churn, whose oracle is a fresh Analyzer over the users
// still alive.
// Duplicate products force heavy coverage ties, so the index-order-vs-
// scan-order distinction would surface immediately if the tie-break ever
// leaked evaluation order.
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
		mo, err := NewMonitor(ps, us, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, arrivals := fixture(rng, 0, 8, d, 3)
		alive := append([]User(nil), us...) // indexed like handles
		handles := make([]int, len(us))
		for i := range handles {
			handles[i] = i
		}
		for _, u := range arrivals {
			h, err := mo.UserArrived(u)
			if err != nil {
				t.Fatal(err)
			}
			alive, handles = append(alive, u), append(handles, h)
			i := rng.Intn(len(handles))
			if err := mo.UserDeparted(handles[i]); err != nil {
				t.Fatal(err)
			}
			alive = append(alive[:i], alive[i+1:]...)
			handles = append(handles[:i], handles[i+1:]...)
		}
		snap := mo.Snapshot()
		fresh, err := NewAnalyzer(ps, alive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 3, len(ps), len(ps) + 5} {
			for _, c := range []struct {
				name      string
				got, want []Influence
			}{
				{"analyzer", a.MostInfluential(n), naiveMostInfluential(a.Coverage, ps, n)},
				{"snapshot after churn", snap.MostInfluential(n), naiveMostInfluential(fresh.Coverage, ps, n)},
			} {
				if len(c.got) != len(c.want) {
					t.Fatalf("trial %d n=%d %s: %d results, want %d",
						trial, n, c.name, len(c.got), len(c.want))
				}
				for i := range c.want {
					if c.got[i] != c.want[i] {
						t.Fatalf("trial %d n=%d %s: result %d = %+v, want %+v",
							trial, n, c.name, i, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}
