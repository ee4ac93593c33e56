package core

import (
	"math/rand"
	"testing"
)

// TestPruningPreservesRegion pins the redundancy-elimination contract: the
// arrangement's split-time pruning changes only the internal cell
// representations, so the reported region — and every structural stat —
// is identical with pruning on or off, across dimensions, m values, and
// worker counts. Only the Prune* counters themselves may differ.
func TestPruningPreservesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		d, nP, nU, k int
		opts         Options
	}{
		{2, 300, 40, 5, Options{}},
		{2, 300, 40, 5, Options{Disable2D: true}},
		{3, 400, 30, 8, Options{}},
		{3, 300, 24, 6, Options{DisableFastTest: true}},
		{4, 300, 20, 5, Options{}},
	}
	for ci, tc := range cases {
		inst := randomInstance(t, rng, tc.nP, tc.nU, tc.d, tc.k)
		for _, m := range []int{1, tc.nU / 4, tc.nU / 2} {
			if m < 1 {
				m = 1
			}
			on := tc.opts
			on.Workers = 1
			off := tc.opts
			off.Workers = 1
			off.DisablePruning = true
			regOn, err := AA(inst, m, on)
			if err != nil {
				t.Fatalf("case %d m=%d pruned: %v", ci, m, err)
			}
			regOff, err := AA(inst, m, off)
			if err != nil {
				t.Fatalf("case %d m=%d unpruned: %v", ci, m, err)
			}
			regionsIdentical(t, regOff, regOn)
			// Bounding boxes are derived from the raw path either way.
			if len(regOn.MBBs) != len(regOff.MBBs) {
				t.Fatalf("case %d m=%d: MBB counts differ", ci, m)
			}
			for i := range regOn.MBBs {
				for s := 0; s < 2; s++ {
					a, b := regOn.MBBs[i][s], regOff.MBBs[i][s]
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("case %d m=%d: MBB %d corner %d coord %d differs: %g vs %g",
								ci, m, i, s, j, a[j], b[j])
						}
					}
				}
			}
			// Classification work is accounted identically; the pruning
			// counters live in their own fields. The LP effort counters are
			// excluded too: pruning changes the solve workload itself (the
			// redundancy LPs only exist when it runs, and classification
			// solves see smaller representations), so pivot and solve counts
			// differ by design.
			so, sf := regOn.Stats, regOff.Stats
			so.PruneLPTests, so.PrunedRows = 0, 0
			so.Pivots, so.ColdSolves = 0, 0
			sf.Pivots, sf.ColdSolves = 0, 0
			if so != sf {
				t.Fatalf("case %d m=%d: stats diverge beyond prune counters:\non  %+v\noff %+v",
					ci, m, regOn.Stats, regOff.Stats)
			}
			if sf.PruneLPTests != 0 || sf.PrunedRows != 0 {
				t.Fatalf("case %d m=%d: unpruned run reports prune work: %+v", ci, m, sf)
			}
			if regOff.Stats.Splits > 0 && regOn.Stats.PrunedRows == 0 && tc.d > 2 {
				t.Fatalf("case %d m=%d: pruning ran but dropped nothing (%d splits)",
					ci, m, regOn.Stats.Splits)
			}
			// Pruning must also commute with the parallel execution layer.
			par := on
			par.Workers = 4
			regPar, err := AA(inst, m, par)
			if err != nil {
				t.Fatalf("case %d m=%d pruned parallel: %v", ci, m, err)
			}
			regionsIdentical(t, regOff, regPar)
		}
	}
}
