package core

import (
	"math"
	"math/rand"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
)

// TestSolveCOBasic: the CO optimum must cover at least m users, lie in the
// region, and no sampled point of the region may be cheaper.
func TestSolveCOBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		d := 2 + trial%3
		inst := randomInstance(t, rng, 300, 24, d, 5)
		m := 6 + 3*trial
		res, err := SolveCO(inst, m, L2Cost{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage < m {
			t.Errorf("trial %d: coverage %d < m=%d at %v", trial, res.Coverage, m, res.Point)
		}
		if !res.Region.Contains(res.Point) {
			// Allow boundary wiggle: the point is on a cell face.
			nudged := res.Point.Clone()
			for j := range nudged {
				nudged[j] = math.Min(1, nudged[j]+1e-6)
			}
			if !res.Region.Contains(nudged) {
				t.Errorf("trial %d: optimum %v outside region", trial, res.Point)
			}
		}
		if math.Abs(res.Cost-res.Point.Norm()) > 1e-6 {
			t.Errorf("trial %d: cost %g != ||point|| %g", trial, res.Cost, res.Point.Norm())
		}
		// No sampled covering point is cheaper.
		for probe := 0; probe < 5000; probe++ {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			if inst.CountCovering(p) >= m && p.Norm() < res.Cost-1e-6 {
				t.Fatalf("trial %d: sampled %v covers %d users at cost %g < %g",
					trial, p, inst.CountCovering(p), p.Norm(), res.Cost)
			}
		}
	}
}

// TestSolveCOGeneralK: CO must work for k > 1 (the paper's generalization
// over Yang et al.).
func TestSolveCOGeneralK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 5, 20} {
		inst := randomInstance(t, rng, 400, 20, 3, k)
		res, err := SolveCO(inst, 10, L2Cost{}, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Coverage < 10 {
			t.Errorf("k=%d: coverage %d < 10", k, res.Coverage)
		}
	}
}

// TestSolveCOAlternativeCosts exercises the L1 and weighted-L2 models.
func TestSolveCOAlternativeCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(t, rng, 300, 20, 3, 5)
	m := 10

	l1, err := SolveCO(inst, m, L1Cost{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l1.Coverage < m {
		t.Errorf("L1 coverage %d < m", l1.Coverage)
	}
	for probe := 0; probe < 4000; probe++ {
		p := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		if inst.CountCovering(p) >= m && (L1Cost{}).Eval(p) < l1.Cost-1e-6 {
			t.Fatalf("sampled point beats L1 optimum: %g < %g", (L1Cost{}).Eval(p), l1.Cost)
		}
	}

	w := WeightedL2Cost{C: geom.Vector{4, 1, 1}}
	wres, err := SolveCO(inst, m, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Coverage < m {
		t.Errorf("weighted coverage %d < m", wres.Coverage)
	}
	for probe := 0; probe < 4000; probe++ {
		p := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		if inst.CountCovering(p) >= m && w.Eval(p) < wres.Cost-1e-6 {
			t.Fatalf("sampled point beats weighted optimum")
		}
	}
}

func TestSolveCOInfeasible(t *testing.T) {
	// Construct an instance where no point covers both users: impossible
	// in mIR (the top corner always covers everyone), so instead check the
	// error path via an empty region... which cannot happen. Validate the
	// m-range error instead.
	rng := rand.New(rand.NewSource(9))
	inst := randomInstance(t, rng, 100, 5, 2, 3)
	if _, err := SolveCO(inst, 99, L2Cost{}, Options{}); err == nil {
		t.Error("m > |U| accepted")
	}
}

// upgradeOracle brute-forces the best coverage reachable from p within
// budget by sampling the upgrade box.
func upgradeOracle(inst *Instance, p geom.Vector, budget float64, rng *rand.Rand, probes int) int {
	best := inst.CountCovering(p)
	d := len(p)
	for i := 0; i < probes; i++ {
		q := make(geom.Vector, d)
		for j := range q {
			q[j] = p[j] + rng.Float64()*(1-p[j])
		}
		if q.Dist(p) <= budget && inst.MinBoundaryGap(q) > 1e-7 {
			if c := inst.CountCovering(q); c > best {
				best = c
			}
		}
	}
	return best
}

// TestSolveISExactness: the exact IS result must match or beat a dense
// sampling oracle, respect the budget, and report its coverage correctly.
func TestSolveISExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		d := 2 + trial%2
		ps := data.Independent(rng, 150, d)
		us := data.WithK(data.ClusteredUsers(rng, 20, d, 3, 0.08), 5)
		pIdx := rng.Intn(len(ps))
		// Keep the product low so upgrades matter.
		for j := range ps[pIdx] {
			ps[pIdx][j] *= 0.5
		}
		budget := 0.2 + 0.3*rng.Float64()
		res, err := SolveIS(ps, us, pIdx, budget, L2Cost{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > budget+1e-6 {
			t.Errorf("trial %d: cost %g exceeds budget %g", trial, res.Cost, budget)
		}
		// Verify the reported coverage and point placement.
		sub, err := competitorInstance(ps, us, pIdx)
		if err != nil {
			t.Fatal(err)
		}
		if got := sub.CountCovering(res.Point); got != res.Coverage {
			// The optimum may sit exactly on entry boundaries; allow the
			// recount to be at least the claim.
			if got < res.Coverage {
				t.Errorf("trial %d: recount %d < claimed %d", trial, got, res.Coverage)
			}
		}
		for j := range res.Point {
			if res.Point[j] < ps[pIdx][j]-1e-7 {
				t.Errorf("trial %d: downgrade in attribute %d", trial, j)
			}
		}
		if res.Coverage < res.BaseCoverage {
			t.Errorf("trial %d: upgrade lost coverage (%d < %d)",
				trial, res.Coverage, res.BaseCoverage)
		}
		// Exactness against the sampling oracle.
		oracle := upgradeOracle(sub, ps[pIdx], budget, rng, 20000)
		if res.Coverage < oracle {
			t.Errorf("trial %d: IS coverage %d below sampled %d", trial, res.Coverage, oracle)
		}
	}
}

func TestSolveISErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ps := data.Independent(rng, 50, 2)
	us := data.WithK(data.UniformUsers(rng, 8, 2), 3)
	if _, err := SolveIS(ps, us, -1, 0.5, L2Cost{}, Options{}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := SolveIS(ps, us, 99, 0.5, L2Cost{}, Options{}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := SolveIS(ps, us, 0, -1, L2Cost{}, Options{}); err == nil {
		t.Error("negative budget accepted")
	}
	nanPs := append([]geom.Vector(nil), ps...)
	nanPs[4] = geom.Vector{math.NaN(), 0.5}
	if _, err := SolveIS(nanPs, us, 4, 0.5, L2Cost{}, Options{}); err == nil {
		t.Error("NaN target product accepted")
	}
}

// TestSolveISZeroBudget: with budget 0 the only option is standing still.
func TestSolveISZeroBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ps := data.Independent(rng, 100, 2)
	us := data.WithK(data.UniformUsers(rng, 10, 2), 3)
	res, err := SolveIS(ps, us, 0, 0, L2Cost{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-9 {
		t.Errorf("cost %g with zero budget", res.Cost)
	}
	if res.Coverage != res.BaseCoverage {
		t.Errorf("coverage %d != base %d with zero budget", res.Coverage, res.BaseCoverage)
	}
}

// TestSolveBudgetedCO: maximum-coverage creation under budget, checked
// against a sampling oracle. The search is identical at every worker
// count — point, cost, coverage and Stats.
func TestSolveBudgetedCO(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4; trial++ {
		d := 2 + trial%2
		inst := randomInstance(t, rng, 150, 16, d, 5)
		budget := 0.6 + 0.3*rng.Float64()
		res, err := SolveBudgetedCO(inst, budget, L2Cost{}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res4, err := SolveBudgetedCO(inst, budget, L2Cost{}, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sameVector(res.Point, res4.Point) || res.Cost != res4.Cost ||
			res.Coverage != res4.Coverage || res.Stats != res4.Stats {
			t.Fatalf("trial %d: workers 1 and 4 differ:\n%+v\n%+v", trial, res, res4)
		}
		if res.Cost > budget+1e-6 {
			t.Errorf("trial %d: cost %g > budget %g", trial, res.Cost, budget)
		}
		// Oracle: sample the ball of radius budget (via box + filter).
		best := 0
		for probe := 0; probe < 20000; probe++ {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			if p.Norm() <= budget && inst.MinBoundaryGap(p) > 1e-7 {
				if c := inst.CountCovering(p); c > best {
					best = c
				}
			}
		}
		if res.Coverage < best {
			t.Errorf("trial %d: budgeted CO coverage %d below sampled %d",
				trial, res.Coverage, best)
		}
	}
}

// TestSolveThresholdedIS: the cheapest upgrade reaching m users.
func TestSolveThresholdedIS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ps := data.Independent(rng, 150, 3)
	us := data.WithK(data.ClusteredUsers(rng, 16, 3, 3, 0.08), 5)
	pIdx := 0
	for j := range ps[pIdx] {
		ps[pIdx][j] *= 0.3
	}
	m := 8
	res, err := SolveThresholdedIS(ps, us, pIdx, m, L2Cost{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < m {
		t.Errorf("coverage %d < m=%d", res.Coverage, m)
	}
	sub, err := competitorInstance(ps, us, pIdx)
	if err != nil {
		t.Fatal(err)
	}
	// No sampled upgrade reaching m users may be cheaper.
	for probe := 0; probe < 20000; probe++ {
		q := make(geom.Vector, 3)
		for j := range q {
			q[j] = ps[pIdx][j] + rng.Float64()*(1-ps[pIdx][j])
		}
		if sub.CountCovering(q) >= m && q.Dist(ps[pIdx]) < res.Cost-1e-6 {
			t.Fatalf("sampled upgrade %v reaches m at cost %g < %g",
				q, q.Dist(ps[pIdx]), res.Cost)
		}
	}
}

// TestISBeatsGreedyWhenCoordinated: construct a scenario where users
// cluster so a coordinated upgrade covers many, and check IS finds it.
func TestISFindsClusterUpgrade(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Products spread low; users all share nearly the same preference, so
	// covering one covers all — an upgrade into their halfspace wins all.
	ps := data.Independent(rng, 80, 2)
	for i := range ps {
		ps[i] = ps[i].Scale(0.7)
	}
	ws := data.ClusteredUsers(rng, 12, 2, 1, 0.01)
	us := data.WithK(ws, 1)
	res, err := SolveIS(ps, us, 0, 2.0, L2Cost{}, Options{}) // generous budget
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 12 {
		t.Errorf("generous budget should cover all 12 users, got %d", res.Coverage)
	}
}

// TestSolveCOBestFirstMatchesTwoPhase: the cost-directed CO search must
// find exactly the optimum the region-based solver finds, and each solver
// returns the bit-identical point, cost and coverage at every worker
// count.
func TestSolveCOBestFirstMatchesTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	solve := func(trial int, name string, fn func(Options) (*COResult, error)) *COResult {
		t.Helper()
		res, err := fn(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res4, err := fn(Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sameVector(res.Point, res4.Point) || res.Cost != res4.Cost || res.Coverage != res4.Coverage {
			t.Fatalf("trial %d %s: workers 1 gives %v cost %v coverage %d, workers 4 gives %v cost %v coverage %d",
				trial, name, res.Point, res.Cost, res.Coverage, res4.Point, res4.Cost, res4.Coverage)
		}
		return res
	}
	for trial := 0; trial < 8; trial++ {
		d := 2 + trial%3
		nU := 14 + 2*trial
		inst := randomInstance(t, rng, 250, nU, d, 1+trial%5)
		m := 3 + rng.Intn(nU-4)
		slow := solve(trial, "two-phase", func(o Options) (*COResult, error) { return SolveCO(inst, m, L2Cost{}, o) })
		fast := solve(trial, "best-first", func(o Options) (*COResult, error) { return SolveCOBestFirst(inst, m, L2Cost{}, o) })
		if math.Abs(slow.Cost-fast.Cost) > 1e-5 {
			t.Errorf("trial %d (d=%d m=%d): two-phase %g vs best-first %g",
				trial, d, m, slow.Cost, fast.Cost)
		}
		if fast.Coverage < m {
			t.Errorf("trial %d: best-first coverage %d < m=%d", trial, fast.Coverage, m)
		}
	}
}

// TestSolveCOBestFirstL1: best-first works with other cost models too.
func TestSolveCOBestFirstL1(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := randomInstance(t, rng, 200, 16, 3, 5)
	slow, err := SolveCO(inst, 8, L1Cost{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SolveCOBestFirst(inst, 8, L1Cost{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.Cost-fast.Cost) > 1e-5 {
		t.Errorf("L1: two-phase %g vs best-first %g", slow.Cost, fast.Cost)
	}
}

// sameVector reports whether a and b hold bit-identical coordinates.
func sameVector(a, b geom.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
