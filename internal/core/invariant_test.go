package core

import (
	"math/rand"
	"testing"

	"mir/internal/celltree"
	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// auditCounts verifies the accounting invariant on every leaf of a
// finished run: InCount/OutCount match an exact reclassification of the
// non-pending users, and no user appears in two pending views. Incremental
// maintenance depends on this invariant; it also guards against double
// counting in the AA bookkeeping.
func auditCounts(t *testing.T, run *aaRun) {
	t.Helper()
	inst := run.inst
	for _, leaf := range run.tr.Leaves(nil, nil) {
		if leaf.Empty {
			continue
		}
		pend := map[int]bool{}
		if cg, ok := leaf.Payload.(*cellGroups); ok && cg != nil {
			for _, v := range cg.views {
				for _, ui := range v.members {
					if pend[ui] {
						t.Fatalf("leaf %d: user %d appears in two views", leaf.ID, ui)
					}
					pend[ui] = true
				}
			}
		}
		trueIn, trueOut := 0, 0
		borderline := false
		for ui, h := range inst.HS {
			if pend[ui] {
				continue
			}
			if boundaryHugsCell(leaf.Polytope(), h) {
				borderline = true // zero-volume tolerance artifact
				break
			}
			switch leaf.Polytope().Classify(h) {
			case geom.Covers:
				trueIn++
			case geom.Excludes:
				trueOut++
			default:
				borderline = true // tolerance flip vs decision time
			}
		}
		if borderline {
			continue
		}
		if trueIn != leaf.InCount || trueOut != leaf.OutCount {
			t.Fatalf("leaf %d (status %v): counts in=%d out=%d, reclassified in=%d out=%d (pending %d)",
				leaf.ID, leaf.Status, leaf.InCount, leaf.OutCount, trueIn, trueOut, len(pend))
		}
	}
}

// boundaryHugsCell reports whether h's boundary hyperplane passes within
// tolerance of the entire cell (possible only for degenerate, zero-volume
// cells). Counts on such cells are tolerance artifacts with no region
// semantics, so the audits skip them.
func boundaryHugsCell(p *geom.Polytope, h geom.Halfspace) bool {
	lo, _, ok1 := p.Minimize(h.W)
	hi, _, ok2 := p.Maximize(h.W)
	if !ok1 || !ok2 {
		return true
	}
	const tol = 1e-6
	return lo >= h.T-tol && hi <= h.T+tol
}

// TestCountInvariantFreshRuns audits the invariant across configurations.
// The 2-D specialized path is exempt by design (it reports cells on
// nesting arguments without materializing counts), so it runs disabled
// here; maintenance disables it for the same reason.
func TestCountInvariantFreshRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		d := 2 + trial%3
		nU := 10 + 3*trial
		inst := randomInstance(t, rng, 150, nU, d, 4)
		for _, m := range []int{2, nU / 2, nU - 1} {
			run, err := runAA(inst, m, Options{Disable2D: true})
			if err != nil {
				t.Fatal(err)
			}
			auditCounts(t, run)
		}
	}
}

// TestCountInvariantAfterMaintenance audits the invariant after churn.
func TestCountInvariantAfterMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := randomInstance(t, rng, 150, 14, 3, 4)
	mt, err := NewMaintainer(inst, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w := data.UniformUsers(rng, 1, 3)[0]
		if _, err := mt.AddUser(topk.UserPref{W: w, K: 4}); err != nil {
			t.Fatal(err)
		}
		if err := mt.RemoveUser(i); err != nil {
			t.Fatal(err)
		}
	}
	// Routed maintenance defers events on subtrees where no decision can
	// flip, leaving per-leaf payloads intentionally stale; settle the
	// backlog so the audit sees materialized pending views and counts.
	mt.settleAll()
	// Every removal must have found its user pending or cleanly decided;
	// a recorded desync means the counts below are already suspect.
	if n := mt.run.st.CountDesyncs; n != 0 {
		t.Fatalf("maintenance churn recorded %d count desyncs", n)
	}
	// The audit must run over alive users only.
	run := mt.run
	alive := aliveRows(mt)
	for _, leaf := range run.tr.Leaves(nil, nil) {
		if leaf.Empty || leaf.Status == celltree.Eliminated {
			continue
		}
		pend := map[int]bool{}
		if cg, ok := leaf.Payload.(*cellGroups); ok && cg != nil {
			for _, v := range cg.views {
				for _, ui := range v.members {
					pend[ui] = true
				}
			}
		}
		in, out := 0, 0
		borderline := false
		for ui, h := range run.inst.HS {
			if !alive[ui] || pend[ui] {
				continue
			}
			if boundaryHugsCell(leaf.Polytope(), h) {
				borderline = true
				break
			}
			switch leaf.Polytope().Classify(h) {
			case geom.Covers:
				in++
			case geom.Excludes:
				out++
			default:
				borderline = true
			}
		}
		if borderline {
			continue
		}
		if in != leaf.InCount || out != leaf.OutCount {
			t.Fatalf("leaf %d after churn: counts in=%d out=%d, reclassified in=%d out=%d",
				leaf.ID, leaf.InCount, leaf.OutCount, in, out)
		}
	}
}
