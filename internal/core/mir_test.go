package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// randomInstance builds a small random mIR instance.
func randomInstance(t *testing.T, rng *rand.Rand, nP, nU, d, k int) *Instance {
	t.Helper()
	ps := data.Independent(rng, nP, d)
	us := data.WithK(data.ClusteredUsers(rng, nU, d, 3, 0.08), k)
	inst, err := NewInstance(ps, us)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkRegionOracle samples points and verifies the fundamental mIR
// contract: a point belongs to the region iff it covers at least m users.
// Points within eps of any top-k entry boundary are skipped.
func checkRegionOracle(t *testing.T, inst *Instance, m int, reg *Region, rng *rand.Rand, probes int) {
	t.Helper()
	const eps = 1e-6
	checked := 0
	for i := 0; i < probes; i++ {
		p := make(geom.Vector, inst.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		if inst.MinBoundaryGap(p) < eps {
			continue
		}
		checked++
		covers := inst.CountCovering(p)
		in := reg.Contains(p)
		if (covers >= m) != in {
			t.Fatalf("oracle violation at %v: covers %d users (m=%d) but Contains=%v",
				p, covers, m, in)
		}
	}
	if checked < probes/2 {
		t.Logf("warning: only %d/%d probes usable (boundary-dense instance)", checked, probes)
	}
}

// sameRegion verifies two regions agree on sampled points.
func sameRegion(t *testing.T, inst *Instance, a, b *Region, rng *rand.Rand, probes int) {
	t.Helper()
	const eps = 1e-6
	for i := 0; i < probes; i++ {
		p := make(geom.Vector, inst.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		if inst.MinBoundaryGap(p) < eps {
			continue
		}
		if a.Contains(p) != b.Contains(p) {
			t.Fatalf("regions disagree at %v: %v vs %v (covers %d users)",
				p, a.Contains(p), b.Contains(p), inst.CountCovering(p))
		}
	}
}

// TestFigure1Example reproduces the paper's running example in spirit: a
// two-dimensional instance with four users where the mIR result for m=3 is
// a non-convex union of cells around the top corner.
func TestFigure1Example(t *testing.T) {
	products := []geom.Vector{
		{0.20, 0.80}, {0.45, 0.70}, {0.60, 0.60}, {0.80, 0.40},
		{0.90, 0.15}, {0.30, 0.30}, {0.55, 0.35},
	}
	users := []topk.UserPref{
		{W: geom.Vector{0.2, 0.8}, K: 1},
		{W: geom.Vector{0.4, 0.6}, K: 2},
		{W: geom.Vector{0.6, 0.4}, K: 2},
		{W: geom.Vector{0.8, 0.2}, K: 1},
	}
	inst, err := NewInstance(products, users)
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	reg, err := AA(inst, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The top corner covers everyone, hence is always in R.
	if !reg.Contains(geom.Vector{1, 1}) {
		t.Error("top corner not in region")
	}
	// The origin covers no one.
	if reg.Contains(geom.Vector{0, 0}) {
		t.Error("origin in region")
	}
	rng := rand.New(rand.NewSource(1))
	checkRegionOracle(t, inst, m, reg, rng, 4000)

	// Cross-check against NVE and BSL.
	nve, err := NVE(inst, m)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, inst, reg, nve, rng, 2000)
	bsl, err := BSL(inst, m)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, inst, reg, bsl, rng, 2000)
}

// TestThreeWayEquivalence cross-checks NVE, BSL and AA on random small
// instances across dimensionalities and m values (including the extremes
// m=1 — union of halfspaces — and m=|U| — intersection).
func TestThreeWayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(3)
		nU := 5 + rng.Intn(5)
		inst := randomInstance(t, rng, 60, nU, d, 1+rng.Intn(4))
		for _, m := range []int{1, (nU + 1) / 2, nU} {
			nve, err := NVE(inst, m)
			if err != nil {
				t.Fatal(err)
			}
			bsl, err := BSL(inst, m)
			if err != nil {
				t.Fatal(err)
			}
			aa, err := AA(inst, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkRegionOracle(t, inst, m, aa, rng, 1500)
			sameRegion(t, inst, aa, nve, rng, 800)
			sameRegion(t, inst, aa, bsl, rng, 800)
		}
	}
}

// TestAAOracleLarger runs the oracle check on larger instances where NVE
// is infeasible.
func TestAAOracleLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct{ nP, nU, d, k, m int }{
		{500, 60, 2, 5, 30},
		{500, 60, 3, 5, 30},
		{300, 40, 4, 3, 10},
		{300, 40, 3, 10, 36},
		{1000, 100, 3, 10, 50},
	} {
		inst := randomInstance(t, rng, cfg.nP, cfg.nU, cfg.d, cfg.k)
		reg, err := AA(inst, cfg.m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkRegionOracle(t, inst, cfg.m, reg, rng, 3000)
	}
}

// TestAblationsPreserveExactness: every Options toggle must yield the same
// region (they are performance switches, not semantics switches). At d=2
// the regions must also have the same exact area, which samples cannot
// show.
func TestAblationsPreserveExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"no-fast", Options{DisableFastTest: true}},
		{"no-inner-group", Options{DisableInnerGroup: true}},
		{"no-2d", Options{Disable2D: true}},
		{"no-grouping", Options{DisableGrouping: true}},
		{"smallest-group", Options{GroupChoice: SmallestGroup}},
		{"round-robin", Options{GroupChoice: RoundRobinGroup}},
		{"everything-off", Options{
			DisableFastTest: true, DisableInnerGroup: true,
			Disable2D: true, DisableGrouping: true,
		}},
	}
	for trial := 0; trial < 4; trial++ {
		d := 2 + trial%3
		nU := 20
		inst := randomInstance(t, rng, 200, nU, d, 5)
		m := 3 + rng.Intn(nU-4)
		base, err := AA(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkRegionOracle(t, inst, m, base, rng, 1500)
		for _, v := range variants[1:] {
			got, err := AA(inst, m, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			sameRegion(t, inst, base, got, rng, 1000)
			if d == 2 {
				a, b := base.Area2D(), got.Area2D()
				if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("%s: area %g vs default %g", v.name, b, a)
				}
			}
		}
	}
}

// TestDiverseK: users with individual k values (the paper's Figure 17b
// setting) must still produce exact regions.
func TestDiverseK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ps := data.Independent(rng, 300, 3)
	ws := data.ClusteredUsers(rng, 30, 3, 3, 0.08)
	for _, users := range [][]topk.UserPref{
		data.WithUniformK(rng, ws, 1, 20),
		data.WithNormalK(rng, ws, 10, 5, 40),
	} {
		inst, err := NewInstance(ps, users)
		if err != nil {
			t.Fatal(err)
		}
		m := 15
		reg, err := AA(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkRegionOracle(t, inst, m, reg, rng, 2000)
	}
}

// TestRegionConnectedViaTopCorner: every cell of the region contains a
// path to the top corner conceptually; at minimum, the top corner itself
// must lie in the region whenever the region is non-empty (all influential
// halfspaces contain it — Section 4.1's observation).
func TestRegionTopCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inst := randomInstance(t, rng, 200, 20, 3, 5)
	top := geom.Vector{1, 1, 1}
	for _, m := range []int{1, 10, 20} {
		reg, err := AA(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reg.IsEmpty() {
			t.Fatalf("m=%d: region empty (top corner covers all)", m)
		}
		if !reg.Contains(top) {
			t.Errorf("m=%d: top corner missing from region", m)
		}
	}
}

// TestRegionMonotoneInM: the region for m+1 is a subset of the region for
// m (sampling check).
func TestRegionMonotoneInM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := randomInstance(t, rng, 300, 15, 3, 5)
	regs := make([]*Region, 0, 15)
	for m := 1; m <= 15; m += 4 {
		r, err := AA(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, r)
	}
	for probe := 0; probe < 2000; probe++ {
		p := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		if inst.MinBoundaryGap(p) < 1e-6 {
			continue
		}
		for i := 1; i < len(regs); i++ {
			if regs[i].Contains(p) && !regs[i-1].Contains(p) {
				t.Fatalf("monotonicity violated at %v between m=%d and m=%d",
					p, regs[i-1].M, regs[i].M)
			}
		}
	}
}

func TestInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ps := data.Independent(rng, 50, 3)
	us := data.WithK(data.UniformUsers(rng, 10, 3), 5)

	if _, err := NewInstance(nil, us); err == nil {
		t.Error("empty products accepted")
	}
	if _, err := NewInstance(ps, nil); err == nil {
		t.Error("empty users accepted")
	}
	bad := data.WithK(data.UniformUsers(rng, 5, 4), 5) // wrong dim
	if _, err := NewInstance(ps, bad); err == nil {
		t.Error("dim mismatch accepted")
	}
	badK := data.WithK(data.UniformUsers(rng, 5, 3), 500) // k > |P|
	if _, err := NewInstance(ps, badK); err == nil {
		t.Error("k > |P| accepted")
	}
	infPs := append([]geom.Vector(nil), ps...)
	infPs[3] = geom.Vector{0.5, math.Inf(-1), 0.5}
	if _, err := NewInstance(infPs, us); !errors.Is(err, ErrNonFinite) {
		t.Errorf("-Inf product attribute: err = %v, want ErrNonFinite", err)
	}
	negUs := append([]topk.UserPref(nil), us...)
	negUs[2] = topk.UserPref{W: geom.Vector{0.8, -0.3, 0.5}, K: 5}
	if _, err := NewInstance(ps, negUs); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("negative user weight: err = %v, want ErrNegativeWeight", err)
	}

	inst, err := NewInstance(ps, us)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AA(inst, 0, Options{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := AA(inst, 11, Options{}); err == nil {
		t.Error("m>|U| accepted")
	}
	if _, err := NVE(inst, 0); err == nil {
		t.Error("NVE m=0 accepted")
	}
	if _, err := BSL(inst, 99); err == nil {
		t.Error("BSL m>|U| accepted")
	}
}

func TestGroupStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := randomInstance(t, rng, 300, 50, 3, 5)
	gs := inst.GroupStats()
	if gs.NumGroups < 1 || gs.NumGroups > 50 {
		t.Errorf("NumGroups = %d", gs.NumGroups)
	}
	if gs.AvgSize*float64(gs.NumGroups) != 50 {
		t.Errorf("AvgSize inconsistent: %g * %d != 50", gs.AvgSize, gs.NumGroups)
	}
	if gs.MaxSize < 1 || gs.AvgHullSize < 1 {
		t.Errorf("stats: %+v", gs)
	}
	total := 0
	for _, g := range inst.Groups {
		total += len(g.Members)
		for _, ui := range g.Members {
			if inst.Kth[ui].Index != g.Pivot {
				t.Fatalf("user %d grouped under wrong pivot", ui)
			}
		}
	}
	if total != 50 {
		t.Errorf("groups cover %d users, want 50", total)
	}
}

// TestGroups2DOrdering: for d=2, group members must be sorted by
// descending w[1] (the invariant Lemmas 5/6 rely on).
func TestGroups2DOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := randomInstance(t, rng, 200, 40, 2, 5)
	for _, g := range inst.Groups {
		for i := 1; i < len(g.Members); i++ {
			if inst.Users[g.Members[i-1]].W[0] < inst.Users[g.Members[i]].W[0] {
				t.Fatal("2-D group members not sorted by descending w[1]")
			}
		}
	}
}

// TestEarlyStatsPopulated: AA on a mid-range m must exhibit both early
// reporting and early elimination (the paper's Figure 16d shows 33-49%).
func TestEarlyStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inst := randomInstance(t, rng, 400, 60, 3, 10)
	reg, err := AA(inst, 30, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := reg.Stats
	if st.EarlyReported == 0 && st.EarlyEliminated == 0 {
		t.Error("no early decisions recorded")
	}
	if st.Cells == 0 || st.Iterations == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// TestBSLSlowerThanAA is a smoke check of the paper's headline claim on a
// moderate instance: AA must create far fewer cells than BSL.
func TestAAFewerCellsThanBSL(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	inst := randomInstance(t, rng, 400, 60, 3, 10)
	aa, err := AA(inst, 30, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bsl, err := BSL(inst, 30)
	if err != nil {
		t.Fatal(err)
	}
	if aa.Stats.Cells >= bsl.Stats.Cells {
		t.Errorf("AA cells %d >= BSL cells %d", aa.Stats.Cells, bsl.Stats.Cells)
	}
}
