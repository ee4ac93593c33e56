package core

import (
	"math/rand"
	"testing"
)

// regionsIdentical asserts structural equality of two regions: same cell
// count, and per-cell identical H-representations. Every cell is processed
// by one goroutine, and processing disjoint cells commutes, so the
// arrangement trees — and therefore the reported cells — must match
// exactly across worker counts, not just geometrically.
func regionsIdentical(t *testing.T, want, got *Region) {
	t.Helper()
	if want.Dim != got.Dim || want.M != got.M {
		t.Fatalf("region headers differ: (%d,%d) vs (%d,%d)", want.Dim, want.M, got.Dim, got.M)
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(want.Cells), len(got.Cells))
	}
	for i := range want.Cells {
		a, b := want.Cells[i], got.Cells[i]
		if len(a.Hs) != len(b.Hs) {
			t.Fatalf("cell %d: constraint counts differ: %d vs %d", i, len(a.Hs), len(b.Hs))
		}
		for j := range a.Hs {
			if a.Hs[j].T != b.Hs[j].T {
				t.Fatalf("cell %d constraint %d: thresholds differ: %g vs %g", i, j, a.Hs[j].T, b.Hs[j].T)
			}
			for k := range a.Hs[j].W {
				if a.Hs[j].W[k] != b.Hs[j].W[k] {
					t.Fatalf("cell %d constraint %d coord %d differs", i, j, k)
				}
			}
		}
	}
}

// TestAAWorkersMatchSequential pins the determinism contract in every AA
// configuration, the sequential-only round-robin strategy included: the
// region computed with any worker count is identical to the sequential
// (Workers: 1) run, and so is every Stats counter. Only MaxFrontier,
// which profiles the frontier's schedule, is exempt.
func TestAAWorkersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		d, nP, nU, k int
		opts         Options
	}{
		{2, 300, 40, 5, Options{}},
		{2, 300, 40, 5, Options{Disable2D: true}},
		{3, 400, 30, 8, Options{}},
		{3, 400, 30, 8, Options{DisableGrouping: true}},
		{3, 400, 30, 8, Options{DisableInnerGroup: true}},
		{3, 400, 30, 8, Options{GroupChoice: RoundRobinGroup}},
		{3, 300, 24, 6, Options{DisableFastTest: true}},
		{4, 300, 20, 5, Options{}},
	}
	for ci, tc := range cases {
		inst := randomInstance(t, rng, tc.nP, tc.nU, tc.d, tc.k)
		for _, m := range []int{1, tc.nU / 4, tc.nU / 2} {
			if m < 1 {
				m = 1
			}
			seqOpts := tc.opts
			seqOpts.Workers = 1
			seq, err := AA(inst, m, seqOpts)
			if err != nil {
				t.Fatalf("case %d m=%d sequential: %v", ci, m, err)
			}
			for _, workers := range []int{2, 4, 8} {
				parOpts := tc.opts
				parOpts.Workers = workers
				par, err := AA(inst, m, parOpts)
				if err != nil {
					t.Fatalf("case %d m=%d workers=%d: %v", ci, m, workers, err)
				}
				regionsIdentical(t, seq, par)
				sa, sb := seq.Stats, par.Stats
				sa.MaxFrontier, sb.MaxFrontier = 0, 0
				if sa != sb {
					t.Fatalf("case %d m=%d workers=%d: stats diverge:\nseq %+v\npar %+v",
						ci, m, workers, sa, sb)
				}
			}
		}
	}
}

// TestNewInstanceWorkersMatch pins that preprocessing is independent of
// the worker count: thresholds, halfspaces, groups, and precomputed hulls.
func TestNewInstanceWorkersMatch(t *testing.T) {
	for _, d := range []int{2, 4} {
		seqInst := randomInstance(t, rand.New(rand.NewSource(11)), 500, 60, d, 7)
		parInst, err := NewInstanceWorkers(seqInst.Products, seqInst.Users, 8)
		if err != nil {
			t.Fatal(err)
		}
		seq1, err := NewInstanceWorkers(seqInst.Products, seqInst.Users, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq1.Kth {
			if seq1.Kth[i] != parInst.Kth[i] {
				t.Fatalf("d=%d user %d: Kth differs: %+v vs %+v", d, i, seq1.Kth[i], parInst.Kth[i])
			}
			if seq1.HS[i].T != parInst.HS[i].T {
				t.Fatalf("d=%d user %d: halfspace threshold differs", d, i)
			}
		}
		if len(seq1.Groups) != len(parInst.Groups) {
			t.Fatalf("d=%d: group counts differ: %d vs %d", d, len(seq1.Groups), len(parInst.Groups))
		}
		for gi := range seq1.Groups {
			a, b := seq1.Groups[gi], parInst.Groups[gi]
			if a.Pivot != b.Pivot || len(a.Members) != len(b.Members) || len(a.Hull) != len(b.Hull) {
				t.Fatalf("d=%d group %d differs: %+v vs %+v", d, gi, a, b)
			}
			for i := range a.Hull {
				if a.Hull[i] != b.Hull[i] {
					t.Fatalf("d=%d group %d: hull position %d differs", d, gi, i)
				}
			}
		}
	}
}

// TestGroupHullPrecomputedMatchesLazy verifies the precomputed group hulls
// agree with the lazy per-view computation they replace.
func TestGroupHullPrecomputedMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{2, 3, 5} {
		inst := randomInstance(t, rng, 400, 50, d, 6)
		for gi, g := range inst.Groups {
			if g.Hull == nil {
				t.Fatalf("d=%d group %d: hull not precomputed", d, gi)
			}
			fresh := (&view{g: g, members: g.Members}).hullPositions(inst)
			if len(fresh) != len(g.Hull) {
				t.Fatalf("d=%d group %d: hull sizes differ: %d vs %d", d, gi, len(fresh), len(g.Hull))
			}
			for i := range fresh {
				if fresh[i] != g.Hull[i] {
					t.Fatalf("d=%d group %d: hull position %d differs", d, gi, i)
				}
			}
		}
	}
}

// TestChooseViewRoundRobin pins the ablation strategy's visit order: the
// cursor starts at view 0 and advances one slot per pick (the original
// implementation incremented before the modulo, skipping view 0 and
// drifting the cursor).
func TestChooseViewRoundRobin(t *testing.T) {
	r := &aaRun{opts: Options{GroupChoice: RoundRobinGroup, Workers: 1}}
	cg := &cellGroups{views: []*view{{}, {}, {}}}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := r.chooseView(cg); got != w {
			t.Fatalf("pick %d: got view %d, want %d", i, got, w)
		}
	}
	// Shrinking the list must keep picks in range and resume from the
	// cursor without re-skipping position 0.
	cg.views = cg.views[:2]
	for i := 0; i < 4; i++ {
		if got := r.chooseView(cg); got < 0 || got >= 2 {
			t.Fatalf("pick on shrunken list out of range: %d", got)
		}
	}
}

// TestAbsorbMirrorsSequentialUpdate runs a 3-worker frontier build, whose
// worker shards are folded back with Tree.AbsorbShard after the join, and
// checks that every leaf keeps the in/out counts and status of the
// sequential run.
func TestAbsorbMirrorsSequentialUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inst := randomInstance(t, rng, 300, 24, 3, 5)
	m := 12
	seq, err := runAA(inst, m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runAA(inst, m, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	seqLeaves := seq.tr.Leaves(nil, nil)
	parLeaves := par.tr.Leaves(nil, nil)
	if len(seqLeaves) != len(parLeaves) {
		t.Fatalf("leaf counts differ: %d vs %d", len(seqLeaves), len(parLeaves))
	}
	for i := range seqLeaves {
		a, b := seqLeaves[i], parLeaves[i]
		if a.InCount != b.InCount || a.OutCount != b.OutCount || a.Status != b.Status {
			t.Fatalf("leaf %d diverges: in %d/%d out %d/%d status %v/%v",
				i, a.InCount, b.InCount, a.OutCount, b.OutCount, a.Status, b.Status)
		}
	}
}

// TestParallelRegionOracle cross-checks a parallel run against the
// brute-force coverage oracle, independent of the sequential comparison.
func TestParallelRegionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := randomInstance(t, rng, 400, 30, 3, 6)
	m := 15
	reg, err := AA(inst, m, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkRegionOracle(t, inst, m, reg, rng, 400)
}
