package celltree

import (
	"math/rand"
	"testing"

	"mir/internal/geom"
	"mir/internal/lp"
)

func unitTree(d int) *Tree { return New(geom.NewBox(d, 0, 1)) }

func TestNewTree(t *testing.T) {
	tr := unitTree(2)
	if !tr.Root.IsLeaf() || tr.Root.Status != Active {
		t.Fatal("fresh root should be an active leaf")
	}
	if !tr.Root.MBBLo.AlmostEqual(geom.Vector{0, 0}, 1e-7) ||
		!tr.Root.MBBHi.AlmostEqual(geom.Vector{1, 1}, 1e-7) {
		t.Errorf("root MBB = %v..%v", tr.Root.MBBLo, tr.Root.MBBHi)
	}
	if tr.Stats.CellsCreated != 1 {
		t.Errorf("CellsCreated = %d", tr.Stats.CellsCreated)
	}
}

func TestNewTreeEmptyBox(t *testing.T) {
	box := geom.NewBox(2, 0, 1)
	box.Append(geom.Halfspace{W: geom.Vector{1, 1}, T: 5})
	tr := New(box)
	if tr.Root.Status != Eliminated {
		t.Error("empty box should eliminate the root")
	}
}

func TestSplitBy(t *testing.T) {
	tr := unitTree(2)
	h := geom.Halfspace{W: geom.Vector{0.5, 0.5}, T: 0.5} // diagonal
	left, right := tr.SplitBy(tr.Root, h)
	if tr.Root.IsLeaf() {
		t.Fatal("root still leaf after split")
	}
	if left.Status != Active || right.Status != Active {
		t.Fatal("both halves should be non-empty")
	}
	// Right child is inside h: its region max of w·x is 1, min is 0.5.
	if !right.Polytope().ContainsPoint(geom.Vector{0.9, 0.9}) {
		t.Error("inside child missing inside point")
	}
	if right.Polytope().ContainsPoint(geom.Vector{0.1, 0.1}) {
		t.Error("inside child contains outside point")
	}
	if !left.Polytope().ContainsPoint(geom.Vector{0.1, 0.1}) {
		t.Error("outside child missing outside point")
	}
	if tr.Stats.Splits != 1 || tr.Stats.CellsCreated != 3 {
		t.Errorf("stats: %+v", tr.Stats)
	}
	if left.Depth != 1 || right.Depth != 1 || tr.Stats.MaxDepth != 1 {
		t.Error("depth bookkeeping wrong")
	}
}

func TestSplitInheritsCounts(t *testing.T) {
	tr := unitTree(2)
	tr.Root.InCount = 3
	tr.Root.OutCount = 2
	l, r := tr.SplitBy(tr.Root, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5})
	if l.InCount != 3 || l.OutCount != 2 || r.InCount != 3 || r.OutCount != 2 {
		t.Error("children did not inherit counts")
	}
}

func TestSplitEmptySide(t *testing.T) {
	tr := unitTree(2)
	// First restrict to x >= 0.8.
	_, right := tr.SplitBy(tr.Root, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.8})
	// Now split that child by x >= 0.5: the outside part is empty.
	l, r := tr.SplitBy(right, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5})
	if l.Status != Eliminated {
		t.Error("empty outside child not eliminated")
	}
	if r.Status != Active {
		t.Error("inside child should be active")
	}
}

func TestFastClassify(t *testing.T) {
	tr := unitTree(2)
	c := tr.Root
	// Whole box inside w·x >= -1.
	if rel, ok := c.FastClassify(geom.Halfspace{W: geom.Vector{0.5, 0.5}, T: -1}); !ok || rel != geom.Covers {
		t.Errorf("covers: rel=%v ok=%v", rel, ok)
	}
	// Whole box outside w·x >= 2.
	if rel, ok := c.FastClassify(geom.Halfspace{W: geom.Vector{0.5, 0.5}, T: 2}); !ok || rel != geom.Excludes {
		t.Errorf("excludes: rel=%v ok=%v", rel, ok)
	}
	// Diagonal cut: inconclusive.
	if _, ok := c.FastClassify(geom.Halfspace{W: geom.Vector{0.5, 0.5}, T: 0.5}); ok {
		t.Error("cut should be inconclusive")
	}
	if tr.Stats.FastTests != 3 || tr.Stats.FastHits != 2 {
		t.Errorf("stats: %+v", tr.Stats)
	}
}

func TestFastClassifyNegativeWeights(t *testing.T) {
	tr := unitTree(2)
	// Flipped halfspace {-w·x >= -0.1}: box mostly outside, cut region near origin.
	h := geom.Halfspace{W: geom.Vector{0.5, 0.5}, T: 0.1}.Flip()
	if _, ok := tr.Root.FastClassify(h); ok {
		t.Error("should be inconclusive (boundary crosses box)")
	}
	// {-w·x >= 1}: impossible inside the box (w·x >= 0 always... min of -w·x is -1).
	h2 := geom.Halfspace{W: geom.Vector{-0.5, -0.5}, T: 0.5}
	if rel, ok := tr.Root.FastClassify(h2); !ok || rel != geom.Excludes {
		t.Errorf("rel=%v ok=%v, want excludes", rel, ok)
	}
}

// TestFastClassifyNeverContradictsLP: on random cells and halfspaces, a
// conclusive fast answer must match the exact LP classification.
func TestFastClassifyNeverContradictsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		tr := unitTree(d)
		leaf := tr.Root
		// Random splits to make a non-box cell.
		for i := 0; i < 2; i++ {
			w := make(geom.Vector, d)
			for j := range w {
				w[j] = rng.Float64()
			}
			s := w.Sum()
			for j := range w {
				w[j] /= s
			}
			l, r := tr.SplitBy(leaf, geom.Halfspace{W: w, T: 0.3 + 0.4*rng.Float64()})
			if r.Status == Active {
				leaf = r
			} else {
				leaf = l
			}
			if leaf.Status != Active {
				break
			}
		}
		if leaf.Status != Active {
			continue
		}
		for probe := 0; probe < 20; probe++ {
			w := make(geom.Vector, d)
			for j := range w {
				w[j] = rng.Float64()
			}
			s := w.Sum()
			for j := range w {
				w[j] /= s
			}
			h := geom.Halfspace{W: w, T: rng.Float64()}
			fast, ok := leaf.FastClassify(h)
			if !ok {
				continue
			}
			exact := leaf.Polytope().Classify(h)
			if fast != exact {
				t.Fatalf("trial %d: fast=%v exact=%v for %v", trial, fast, exact, h)
			}
		}
	}
}

func TestPolytopeReconstruction(t *testing.T) {
	tr := unitTree(2)
	h1 := geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5}
	_, r1 := tr.SplitBy(tr.Root, h1)
	h2 := geom.Halfspace{W: geom.Vector{0, 1}, T: 0.5}
	l2, _ := tr.SplitBy(r1, h2)
	// l2: x >= 0.5, y <= 0.5.
	p := l2.Polytope()
	if !p.ContainsPoint(geom.Vector{0.7, 0.3}) {
		t.Error("missing interior point")
	}
	if p.ContainsPoint(geom.Vector{0.3, 0.3}) || p.ContainsPoint(geom.Vector{0.7, 0.7}) {
		t.Error("contains excluded point")
	}
}

func TestReportEliminateIdempotent(t *testing.T) {
	tr := unitTree(2)
	tr.Report(tr.Root)
	tr.Report(tr.Root)
	if tr.Stats.Reported != 1 {
		t.Errorf("Reported = %d", tr.Stats.Reported)
	}
	tr2 := unitTree(2)
	tr2.Eliminate(tr2.Root)
	tr2.Eliminate(tr2.Root)
	if tr2.Stats.Eliminated != 1 {
		t.Errorf("Eliminated = %d", tr2.Stats.Eliminated)
	}
	// Report after eliminate is a no-op.
	tr2.Report(tr2.Root)
	if tr2.Root.Status != Eliminated || tr2.Stats.Reported != 0 {
		t.Error("status transitioned after decision")
	}
}

func TestLeavesEnumeration(t *testing.T) {
	tr := unitTree(2)
	l, r := tr.SplitBy(tr.Root, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5})
	tr.SplitBy(r, geom.Halfspace{W: geom.Vector{0, 1}, T: 0.5})
	leaves := tr.Leaves(nil, nil)
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(leaves))
	}
	tr.Report(l)
	rep := tr.ReportedLeaves()
	if len(rep) != 1 || rep[0] != l {
		t.Error("ReportedLeaves wrong")
	}
}

// TestPathDerivedIDs pins the deterministic ID scheme: the root is 0 and
// a split assigns 2·ID+1 / 2·ID+2, so IDs depend only on the split
// history, never on the order independent subtrees were processed in.
func TestPathDerivedIDs(t *testing.T) {
	tr := unitTree(2)
	l, r := tr.SplitBy(tr.Root, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5})
	if l.ID != 1 || r.ID != 2 {
		t.Fatalf("first-level IDs = %d, %d; want 1, 2", l.ID, r.ID)
	}
	ll, lr := tr.SplitBy(l, geom.Halfspace{W: geom.Vector{0, 1}, T: 0.5})
	rl, rr := tr.SplitBy(r, geom.Halfspace{W: geom.Vector{0, 1}, T: 0.5})
	if ll.ID != 3 || lr.ID != 4 || rl.ID != 5 || rr.ID != 6 {
		t.Fatalf("second-level IDs = %d, %d, %d, %d; want 3, 4, 5, 6",
			ll.ID, lr.ID, rl.ID, rr.ID)
	}
}

// TestShardSplitMatchesSequential splits two disjoint subtrees through
// worker shards and checks that the merged stats and the resulting
// arrangement are identical to the same splits performed sequentially.
func TestShardSplitMatchesSequential(t *testing.T) {
	build := func(viaShards bool) *Tree {
		tr := unitTree(2)
		l, r := tr.SplitBy(tr.Root, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5})
		h := geom.Halfspace{W: geom.Vector{0, 1}, T: 0.5}
		if viaShards {
			shA, shB := tr.NewShard(), tr.NewShard()
			shA.SplitBy(l, h)
			lb, rb := shB.SplitBy(r, h)
			shB.Report(rb)
			shB.Eliminate(lb)
			// Absorption order must not matter (sums and maxima commute).
			tr.AbsorbShard(shB)
			tr.AbsorbShard(shA)
		} else {
			tr.SplitBy(l, h)
			lb, rb := tr.SplitBy(r, h)
			tr.Report(rb)
			tr.Eliminate(lb)
		}
		return tr
	}
	seq, shd := build(false), build(true)
	if seq.Stats != shd.Stats {
		t.Fatalf("stats diverge:\nseq   %+v\nshard %+v", seq.Stats, shd.Stats)
	}
	sl, dl := seq.Leaves(nil, nil), shd.Leaves(nil, nil)
	if len(sl) != len(dl) {
		t.Fatalf("leaf counts differ: %d vs %d", len(sl), len(dl))
	}
	for i := range sl {
		if sl[i].ID != dl[i].ID || sl[i].Status != dl[i].Status {
			t.Fatalf("leaf %d: (%d,%v) vs (%d,%v)",
				i, sl[i].ID, sl[i].Status, dl[i].ID, dl[i].Status)
		}
	}
}

// TestAbsorbShardTwicePanics pins the double-absorb guard: folding the
// same worker shard into the tree twice would re-add counters that were
// already merged, so the second call must panic instead of silently
// corrupting Stats. The tree's own shard aliases Tree.Stats and stays
// absorbable any number of times (each fold is a no-op).
func TestAbsorbShardTwicePanics(t *testing.T) {
	tr := unitTree(2)
	sh := tr.NewShard()
	sh.SplitBy(tr.Root, geom.Halfspace{W: geom.Vector{1, 0}, T: 0.5})
	tr.AbsorbShard(sh)
	want := tr.Stats
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second AbsorbShard did not panic")
			}
		}()
		tr.AbsorbShard(sh)
	}()
	if tr.Stats != want {
		t.Fatalf("stats changed across the panicking absorb:\nbefore %+v\nafter  %+v", want, tr.Stats)
	}
	// The built-in shard is exempt: it already writes through Tree.Stats.
	tr.AbsorbShard(tr.OwnShard())
	tr.AbsorbShard(tr.OwnShard())
	if tr.Stats != want {
		t.Fatalf("OwnShard absorb mutated stats:\nbefore %+v\nafter  %+v", want, tr.Stats)
	}
}

// TestClipBoxProperty: the analytic box-halfspace clip must bound every
// sampled feasible point and report emptiness only when the halfspace
// truly misses the box.
func TestClipBoxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(5)
		lo := make(geom.Vector, d)
		hi := make(geom.Vector, d)
		for j := 0; j < d; j++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		h := geom.Halfspace{W: w, T: rng.NormFloat64() * 0.5}
		nlo, nhi, ok := clipBox(lo, hi, h)
		hits := 0
		for probe := 0; probe < 400; probe++ {
			x := make(geom.Vector, d)
			for j := range x {
				x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			if h.Eval(x) < 1e-9 {
				continue // outside the halfspace
			}
			hits++
			if !ok {
				t.Fatalf("trial %d: clip reported empty but %v is feasible", trial, x)
			}
			for j := range x {
				if x[j] < nlo[j]-1e-7 || x[j] > nhi[j]+1e-7 {
					t.Fatalf("trial %d: feasible %v outside clipped box [%v, %v]",
						trial, x, nlo, nhi)
				}
			}
		}
		if ok {
			// The clipped box must stay inside the original.
			for j := 0; j < d; j++ {
				if nlo[j] < lo[j]-1e-12 || nhi[j] > hi[j]+1e-12 {
					t.Fatalf("trial %d: clipped box escapes the original", trial)
				}
			}
		}
	}
}

// TestClipBoxExactOnSingleConstraint: for a box and one halfspace the clip
// is the exact bounding box — cross-check against the LP-based MBB.
func TestClipBoxExactOnSingleConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(3)
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = rng.Float64()
		}
		s := w.Sum()
		for j := range w {
			w[j] /= s
		}
		h := geom.Halfspace{W: w, T: 0.2 + 0.6*rng.Float64()}
		lo := make(geom.Vector, d)
		hi := make(geom.Vector, d)
		for j := 0; j < d; j++ {
			hi[j] = 1
		}
		nlo, nhi, ok := clipBox(lo, hi, h)
		poly := geom.NewBox(d, 0, 1).With(h)
		plo, phi, pok := poly.MBB()
		if ok != pok {
			t.Fatalf("trial %d: clip ok=%v LP ok=%v", trial, ok, pok)
		}
		if !ok {
			continue
		}
		if !nlo.AlmostEqual(plo, 1e-6) || !nhi.AlmostEqual(phi, 1e-6) {
			t.Fatalf("trial %d: clip [%v,%v] vs LP [%v,%v]", trial, nlo, nhi, plo, phi)
		}
	}
}

// TestStatsMergeOrderFree pins the commutativity/associativity contract
// Merge documents: folding per-worker shard stats in any order yields the
// same totals. Every counter — the routing trio RoutedLeaves /
// SkippedSubtrees / TouchedFrontier included — must merge by summation
// (MaxDepth by maximum, which is equally order-free), or worker-count
// determinism of the public Stats breaks.
func TestStatsMergeOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	randStats := func() Stats {
		return Stats{
			CellsCreated:     rng.Intn(1000),
			Splits:           rng.Intn(1000),
			ContainmentTests: rng.Intn(1000),
			FastTests:        rng.Intn(1000),
			FastHits:         rng.Intn(1000),
			Reported:         rng.Intn(1000),
			Eliminated:       rng.Intn(1000),
			MaxDepth:         rng.Intn(64),
			PruneLPTests:     rng.Intn(1000),
			PrunedRows:       rng.Intn(1000),
			RoutedLeaves:     rng.Intn(1000),
			SkippedSubtrees:  rng.Intn(1000),
			TouchedFrontier:  rng.Intn(1000),
			LP: lp.Counters{
				Pivots:     int64(rng.Intn(1000)),
				ColdSolves: int64(rng.Intn(1000)),
			},
		}
	}
	for trial := 0; trial < 20; trial++ {
		shards := make([]Stats, 2+rng.Intn(7))
		for i := range shards {
			shards[i] = randStats()
		}
		var forward Stats
		for _, s := range shards {
			forward.Merge(s)
		}
		perm := rng.Perm(len(shards))
		var permuted Stats
		for _, i := range perm {
			permuted.Merge(shards[i])
		}
		if forward != permuted {
			t.Fatalf("trial %d: merge order changed totals:\n forward  %+v\n permuted %+v (order %v)",
				trial, forward, permuted, perm)
		}
	}
}
