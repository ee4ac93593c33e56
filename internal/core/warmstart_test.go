package core

import (
	"math/rand"
	"testing"
)

// TestWarmStartPreservesRegion pins the warm-start contract: re-entering
// parent-cell simplex bases changes only where each solve's pivot search
// begins, never what it answers. For every configuration, the finished
// arrangement (leaf IDs, statuses, counts, depths), the exported region,
// and every Stats counter except the four LP effort counters are
// byte-identical with warm starts on or off — and identical across worker
// counts 1/2/4/8 within each setting. The warm runs must additionally show
// the optimization doing real work: warm hits present and strictly fewer
// pivots than the cold runs.
func TestWarmStartPreservesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cases := []struct {
		d, nP, nU, k int
		opts         Options
	}{
		{3, 400, 32, 6, Options{}},
		{3, 300, 24, 6, Options{DisableFastTest: true}},
		{2, 300, 40, 5, Options{Disable2D: true}},
		{4, 300, 20, 5, Options{}},
	}
	for ci, tc := range cases {
		inst := randomInstance(t, rng, tc.nP, tc.nU, tc.d, tc.k)
		for _, m := range []int{1, tc.nU / 3} {
			if m < 1 {
				m = 1
			}
			warmOpts := tc.opts
			warmOpts.Workers = 1
			coldOpts := warmOpts
			coldOpts.DisableWarmStart = true

			warmRef, err := runAA(inst, m, warmOpts)
			if err != nil {
				t.Fatalf("case %d m=%d warm: %v", ci, m, err)
			}
			coldRef, err := runAA(inst, m, coldOpts)
			if err != nil {
				t.Fatalf("case %d m=%d cold: %v", ci, m, err)
			}
			warmReg, coldReg := warmRef.region(), coldRef.region()

			// Identical arrangements, leaf by leaf.
			wl, cl := warmRef.tr.Leaves(nil, nil), coldRef.tr.Leaves(nil, nil)
			if len(wl) != len(cl) {
				t.Fatalf("case %d m=%d: %d leaves warm, %d cold", ci, m, len(wl), len(cl))
			}
			for i := range wl {
				a, b := wl[i], cl[i]
				if a.ID != b.ID || a.Depth != b.Depth || a.Status != b.Status ||
					a.InCount != b.InCount || a.OutCount != b.OutCount {
					t.Fatalf("case %d m=%d leaf %d diverges warm/cold: "+
						"id %d/%d depth %d/%d status %v/%v in %d/%d out %d/%d",
						ci, m, i, a.ID, b.ID, a.Depth, b.Depth,
						a.Status, b.Status, a.InCount, b.InCount, a.OutCount, b.OutCount)
				}
			}
			regionsIdentical(t, coldReg, warmReg)

			// Identical stats except the LP effort counters.
			sw, sc := warmReg.Stats, coldReg.Stats
			sw.Pivots, sw.WarmHits, sw.WarmMisses, sw.ColdSolves = 0, 0, 0, 0
			sc.Pivots, sc.WarmHits, sc.WarmMisses, sc.ColdSolves = 0, 0, 0, 0
			if sw != sc {
				t.Fatalf("case %d m=%d: stats diverge beyond LP counters:\nwarm %+v\ncold %+v",
					ci, m, warmReg.Stats, coldReg.Stats)
			}

			// The optimization must do real work when the run splits at all.
			if warmReg.Stats.Splits > 0 {
				if warmReg.Stats.WarmHits == 0 {
					t.Fatalf("case %d m=%d: warm run scored no warm hits: %+v",
						ci, m, warmReg.Stats)
				}
				if warmReg.Stats.Pivots >= coldReg.Stats.Pivots {
					t.Fatalf("case %d m=%d: warm pivots %d not below cold %d",
						ci, m, warmReg.Stats.Pivots, coldReg.Stats.Pivots)
				}
			}
			if coldReg.Stats.WarmHits != 0 {
				t.Fatalf("case %d m=%d: cold run reports warm hits: %+v",
					ci, m, coldReg.Stats)
			}

			// Both settings commute with the frontier scheduler: every worker
			// count reproduces its own workers=1 run exactly, all LP counters
			// included (solve chains are cell-local).
			for _, workers := range []int{2, 4, 8} {
				for _, ref := range []struct {
					name string
					opts Options
					reg  *Region
				}{
					{"warm", warmOpts, warmReg},
					{"cold", coldOpts, coldReg},
				} {
					po := ref.opts
					po.Workers = workers
					got, err := AA(inst, m, po)
					if err != nil {
						t.Fatalf("case %d m=%d %s workers=%d: %v", ci, m, ref.name, workers, err)
					}
					regionsIdentical(t, ref.reg, got)
					sa, sb := ref.reg.Stats, got.Stats
					sa.MaxFrontier, sb.MaxFrontier = 0, 0
					if sa != sb {
						t.Fatalf("case %d m=%d %s workers=%d: stats diverge:\nseq %+v\npar %+v",
							ci, m, ref.name, workers, sa, sb)
					}
				}
			}
		}
	}
}
