package mir

import (
	"math"
	"math/rand"
	"testing"
)

// fixture builds a small random public-API dataset.
func fixture(rng *rand.Rand, nP, nU, d, k int) ([][]float64, []User) {
	ps := make([][]float64, nP)
	for i := range ps {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ps[i] = p
	}
	us := make([]User, nU)
	for i := range us {
		w := make([]float64, d)
		s := 0.0
		for j := range w {
			w[j] = rng.ExpFloat64()
			s += w[j]
		}
		for j := range w {
			w[j] /= s
		}
		us[i] = User{Weights: w, K: k}
	}
	return ps, us
}

func TestAnalyzerBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps, us := fixture(rng, 200, 20, 3, 5)
	a, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumProducts() != 200 || a.NumUsers() != 20 || a.Dim() != 3 {
		t.Errorf("metadata wrong: %d %d %d", a.NumProducts(), a.NumUsers(), a.Dim())
	}
	num, avg := a.Groups()
	if num < 1 || avg*float64(num) != 20 {
		t.Errorf("groups: %d avg %g", num, avg)
	}
	if got := a.Coverage([]float64{1, 1, 1}); got != 20 {
		t.Errorf("top corner coverage %d, want 20", got)
	}
}

func TestImpactRegionAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps, us := fixture(rng, 300, 20, 3, 5)
	reg, err := ImpactRegion(ps, us, 10)
	if err != nil {
		t.Fatal(err)
	}
	if reg.M() != 10 || reg.Dim() != 3 || reg.IsEmpty() {
		t.Fatalf("region metadata: m=%d dim=%d empty=%v", reg.M(), reg.Dim(), reg.IsEmpty())
	}
	if !reg.Contains([]float64{1, 1, 1}) {
		t.Error("top corner not contained")
	}
	if reg.Contains([]float64{0, 0, 0}) {
		t.Error("origin contained")
	}
	// Region contract on samples, via Analyzer.Coverage.
	a, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 2000; probe++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		cov := a.Coverage(p)
		in := reg.Contains(p)
		// Skip near-threshold points.
		if cov == 10 || cov == 9 {
			continue
		}
		if (cov >= 10) != in {
			t.Fatalf("contract violated at %v: coverage %d, contains %v", p, cov, in)
		}
	}
	// Cell introspection.
	cells := reg.Cells()
	if len(cells) != reg.NumCells() || len(cells) == 0 {
		t.Fatal("cells accessor inconsistent")
	}
	for _, c := range cells[:min(5, len(cells))] {
		pt, ok := c.AnyPoint()
		if !ok {
			continue
		}
		if !c.Contains(pt) {
			t.Error("AnyPoint not contained in its cell")
		}
		if !reg.Contains(pt) {
			t.Error("cell point not in region")
		}
		if len(c.Constraints()) == 0 {
			t.Error("cell without constraints")
		}
		lo, hi := c.BoundingBox()
		for j := range pt {
			if pt[j] < lo[j]-1e-6 || pt[j] > hi[j]+1e-6 {
				t.Error("cell point outside its bounding box")
			}
		}
	}
	st := reg.Stats()
	if st.Cells == 0 || st.Iterations == 0 {
		t.Errorf("stats empty: %+v", st)
	}
}

// TestRegionArea2D checks the exact d=2 area against the coverage
// oracle, not against the region itself: the Monte-Carlo share of uniform
// points where Analyzer.Coverage reaches m must match Region.Area within
// four standard errors, with the specialized 2-D insertion (Lemmas 5/6)
// and with the generic path.
func TestRegionArea2D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps, us := fixture(rng, 200, 15, 2, 5)
	const m, n = 8, 30000
	oracle, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i := 0; i < n; i++ {
		if oracle.Coverage([]float64{rng.Float64(), rng.Float64()}) >= m {
			covered++
		}
	}
	mc := float64(covered) / n
	tol := 4 * math.Sqrt(mc*(1-mc)/n)
	for _, opts := range []*Options{nil, {Disable2DSpecialization: true}} {
		an, err := NewAnalyzer(ps, us, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := an.ImpactRegion(m)
		if err != nil {
			t.Fatal(err)
		}
		area := reg.Area()
		if area <= 0 || area > 1 {
			t.Errorf("options %+v: area = %g, want in (0,1]", opts, area)
		}
		if math.Abs(mc-area) > tol {
			t.Errorf("options %+v: analytic area %g vs coverage-oracle Monte-Carlo %g (tolerance %g)",
				opts, area, mc, tol)
		}
	}
}

func TestCostOptimalAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps, us := fixture(rng, 250, 18, 3, 5)
	a, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := a.CostOptimal(9, L2())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Coverage < 9 {
		t.Errorf("coverage %d < 9", pl.Coverage)
	}
	if pl.Region == nil || pl.Region.IsEmpty() {
		t.Error("region missing from placement")
	}
	if math.Abs(pl.Cost-L2().Eval(pl.Point)) > 1e-6 {
		t.Errorf("cost mismatch: %g vs %g", pl.Cost, L2().Eval(pl.Point))
	}

	w, err := WeightedL2([]float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CostOptimal(9, w); err != nil {
		t.Fatal(err)
	}
	if _, err := WeightedL2([]float64{1, 0, 1}); err == nil {
		t.Error("zero factor accepted")
	}
	if _, err := a.CostOptimal(0, L2()); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestImproveAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps, us := fixture(rng, 150, 12, 2, 3)
	for j := range ps[0] {
		ps[0][j] *= 0.4
	}
	up, err := Improve(ps, us, 0, 0.4, L2())
	if err != nil {
		t.Fatal(err)
	}
	if up.Cost > 0.4+1e-6 {
		t.Errorf("cost %g over budget", up.Cost)
	}
	if up.Coverage < up.BaseCoverage {
		t.Error("upgrade reduced coverage")
	}
	for j := range up.Point {
		if up.Point[j] < ps[0][j]-1e-7 {
			t.Error("upgrade lowered an attribute")
		}
	}
	if _, err := Improve(ps, us, -1, 0.4, L2()); err == nil {
		t.Error("bad index accepted")
	}
}

func TestCrossbreedAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps, us := fixture(rng, 150, 12, 2, 3)
	a, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := a.BudgetedCostOptimal(1.0, L2())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Cost > 1.0+1e-6 {
		t.Errorf("budgeted CO cost %g over budget", pl.Cost)
	}
	if got := a.Coverage(pl.Point); got < pl.Coverage {
		t.Errorf("recount %d < claimed %d", got, pl.Coverage)
	}

	for j := range ps[3] {
		ps[3][j] *= 0.4
	}
	up, err := CheapestUpgrade(ps, us, 3, 6, L2())
	if err != nil {
		t.Fatal(err)
	}
	if up.Coverage < 6 {
		t.Errorf("thresholded upgrade coverage %d < 6", up.Coverage)
	}
}

func TestOptionsPlumbed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps, us := fixture(rng, 150, 15, 2, 3)
	for _, opts := range []*Options{
		nil,
		{},
		{Strategy: SmallestFirst},
		{Strategy: RoundRobin},
		{DisableFastTests: true, DisableInnerGroupProcessing: true},
		{Disable2DSpecialization: true, DisableGrouping: true},
	} {
		a, err := NewAnalyzer(ps, us, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := a.ImpactRegion(7)
		if err != nil {
			t.Fatal(err)
		}
		// All variants agree on sampled membership.
		for probe := 0; probe < 300; probe++ {
			p := []float64{rng.Float64(), rng.Float64()}
			cov := a.Coverage(p)
			if cov == 7 || cov == 6 {
				continue
			}
			if (cov >= 7) != reg.Contains(p) {
				t.Fatalf("opts %+v: contract violated", opts)
			}
		}
	}
}

func TestNewAnalyzerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps, us := fixture(rng, 50, 5, 2, 3)
	if _, err := NewAnalyzer(nil, us, nil); err == nil {
		t.Error("nil products accepted")
	}
	if _, err := NewAnalyzer(ps, nil, nil); err == nil {
		t.Error("nil users accepted")
	}
	nanPs := append([][]float64(nil), ps...)
	nanPs[1] = []float64{math.NaN(), 0.5}
	if _, err := NewAnalyzer(nanPs, us, nil); err == nil {
		t.Error("NaN product attribute accepted")
	}
	infUs := append([]User(nil), us...)
	infUs[2] = User{Weights: []float64{math.Inf(1), 0}, K: 3}
	if _, err := NewAnalyzer(ps, infUs, nil); err == nil {
		t.Error("Inf user weight accepted")
	}
	negUs := append([]User(nil), us...)
	negUs[1] = User{Weights: []float64{1.3, -0.3}, K: 3}
	if _, err := NewAnalyzer(ps, negUs, nil); err == nil {
		t.Error("negative user weight accepted")
	}
	us[0].K = 0
	if _, err := NewAnalyzer(ps, us, nil); err == nil {
		t.Error("k=0 accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
