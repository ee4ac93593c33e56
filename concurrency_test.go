package mir

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// deepCopyFixture clones a fixture so one copy can be mutated while the
// other stays pristine.
func deepCopyFixture(ps [][]float64, us []User) ([][]float64, []User) {
	cps := make([][]float64, len(ps))
	for i, p := range ps {
		cps[i] = append([]float64(nil), p...)
	}
	cus := make([]User, len(us))
	for i, u := range us {
		cus[i] = User{Weights: append([]float64(nil), u.Weights...), K: u.K}
	}
	return cps, cus
}

// TestNewAnalyzerCopiesInputs is the regression test for the API aliasing
// bug: NewAnalyzer used to retain the caller's product rows and weight
// slices, so mutating them after construction silently corrupted every
// later query.
func TestNewAnalyzerCopiesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ps, us := fixture(rng, 250, 18, 3, 5)
	pristinePs, pristineUs := deepCopyFixture(ps, us)

	an, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Trash the caller-owned slices after construction.
	for i := range ps {
		for j := range ps[i] {
			ps[i][j] = 99.9
		}
	}
	for i := range us {
		for j := range us[i].Weights {
			us[i].Weights[j] = -7
		}
	}

	ref, err := NewAnalyzer(pristinePs, pristineUs, nil)
	if err != nil {
		t.Fatal(err)
	}
	const m = 9
	got, err := an.ImpactRegion(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ImpactRegion(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells()) != len(want.Cells()) {
		t.Fatalf("region corrupted by input mutation: %d cells, want %d",
			len(got.Cells()), len(want.Cells()))
	}
	for i := 0; i < 200; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if an.Coverage(p) != ref.Coverage(p) {
			t.Fatalf("coverage corrupted by input mutation at %v: %d vs %d",
				p, an.Coverage(p), ref.Coverage(p))
		}
	}
}

// TestNewMonitorCopiesInputs is the same regression for the dynamic API.
func TestNewMonitorCopiesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ps, us := fixture(rng, 150, 12, 2, 4)
	pristinePs, pristineUs := deepCopyFixture(ps, us)

	mo, err := NewMonitor(ps, us, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		for j := range ps[i] {
			ps[i][j] = 42
		}
	}
	for i := range us {
		us[i].Weights[0] = 1e9
	}
	ref, err := NewMonitor(pristinePs, pristineUs, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		if mo.Coverage(p) != ref.Coverage(p) {
			t.Fatalf("monitor coverage corrupted by input mutation at %v", p)
		}
	}

	// UserArrived must also copy the weights it is handed.
	w := []float64{0.5, 0.5}
	h, err := mo.UserArrived(User{Weights: w, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h < 0 {
		t.Fatalf("valid arrival returned handle %d", h)
	}
	w[0], w[1] = 1e9, -1e9
	if _, err := ref.UserArrived(User{Weights: []float64{0.5, 0.5}, K: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		if mo.Coverage(p) != ref.Coverage(p) {
			t.Fatalf("arrival weights aliased: coverage differs at %v", p)
		}
	}
}

// TestUserArrivedErrorHandle pins the handle contract: the error path
// returns -1, never a value colliding with the first initial user's
// handle 0.
func TestUserArrivedErrorHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ps, us := fixture(rng, 100, 8, 2, 3)
	mo, err := NewMonitor(ps, us, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong dimensionality: must fail with handle -1.
	h, err := mo.UserArrived(User{Weights: []float64{0.2, 0.3, 0.5}, K: 3})
	if err == nil {
		t.Fatal("expected error for wrong-dimension user")
	}
	if h != -1 {
		t.Fatalf("error-path handle = %d, want -1", h)
	}
	// Bad k: same contract.
	h, err = mo.UserArrived(User{Weights: []float64{0.5, 0.5}, K: 0})
	if err == nil {
		t.Fatal("expected error for k=0")
	}
	if h != -1 {
		t.Fatalf("error-path handle = %d, want -1", h)
	}
	// The monitor must still be usable, and the next valid handle is the
	// next unused non-negative integer (8 initial users -> handle 8).
	h, err = mo.UserArrived(User{Weights: []float64{0.4, 0.6}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h != 8 {
		t.Fatalf("first valid arrival handle = %d, want 8", h)
	}
}

// TestAnalyzerConcurrentQueries exercises the documented guarantee that
// Analyzer methods are safe to call from multiple goroutines: every query
// builds its own cell tree over the shared read-only instance. Run with
// -race (CI does) to surface any shared mutable state.
func TestAnalyzerConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ps, us := fixture(rng, 300, 16, 3, 6)
	an, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	const m = 8
	want, err := an.ImpactRegion(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	cellCounts := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reg, err := an.ImpactRegion(m)
			if err != nil {
				errs <- err
				return
			}
			cellCounts[g] = len(reg.Cells())
			if _, err := an.CostOptimalFast(m, L2()); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, n := range cellCounts {
		if n != len(want.Cells()) {
			t.Fatalf("goroutine %d: %d cells, want %d", g, n, len(want.Cells()))
		}
	}
}

// TestConcurrentQueriesSharedPools stresses the pooled LP scratch layers
// (workspace pool, feasibility scratch, hull scratch, axis-normal cache)
// through the public API: goroutines with different worker counts, m
// values, and pruning settings run against one shared Analyzer while
// others run on their own analyzers. Under -race this surfaces any
// scratch buffer escaping its borrower; without -race it still checks
// every goroutine reproduces the sequential answer exactly.
func TestConcurrentQueriesSharedPools(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ps, us := fixture(rng, 300, 16, 3, 6)
	shared, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := []int{1, 4, 8, 12}
	want := make(map[int]int)
	for _, m := range ms {
		reg, err := shared.ImpactRegion(m)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = len(reg.Cells())
	}

	variants := []*Options{
		nil,
		{Workers: 1},
		{Workers: 4},
		{Workers: 2},
		{Workers: 8},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			an := shared
			if g%3 == 0 {
				// A third of the goroutines construct their own analyzer
				// concurrently (construction uses the same pools).
				var err error
				an, err = NewAnalyzer(ps, us, variants[g%len(variants)])
				if err != nil {
					errs <- err
					return
				}
			}
			for r := 0; r < 3; r++ {
				m := ms[(g+r)%len(ms)]
				reg, err := an.ImpactRegion(m)
				if err != nil {
					errs <- err
					return
				}
				if len(reg.Cells()) != want[m] {
					errs <- fmt.Errorf("goroutine %d m=%d: %d cells, want %d",
						g, m, len(reg.Cells()), want[m])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkersOptionPlumbed checks the Workers knob reaches the engine and
// that sequential and parallel configurations agree on the answer.
func TestWorkersOptionPlumbed(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	ps, us := fixture(rng, 300, 16, 3, 6)
	seq, err := NewAnalyzer(ps, us, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewAnalyzer(ps, us, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5, 8} {
		a, err := seq.ImpactRegion(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.ImpactRegion(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Cells()) != len(b.Cells()) {
			t.Fatalf("m=%d: sequential %d cells, parallel %d", m, len(a.Cells()), len(b.Cells()))
		}
	}
}
