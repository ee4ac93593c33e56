package core

import (
	"math/rand"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// auditAliveAccounting checks the maintained accounting invariant on a
// settled Maintainer: on every non-empty leaf the decided counts plus the
// pending view members equal the alive population, and no user is pending
// twice. Unlike auditCounts this stays meaningful after departures, whose
// halfspaces remain registered but must no longer be counted anywhere.
func auditAliveAccounting(t *testing.T, mt *Maintainer) {
	t.Helper()
	for _, leaf := range mt.run.tr.Leaves(nil, nil) {
		if leaf.Empty {
			continue
		}
		pend := map[int]bool{}
		if cg, ok := leaf.Payload.(*cellGroups); ok && cg != nil {
			for _, v := range cg.views {
				for _, ui := range v.members {
					if pend[ui] {
						t.Fatalf("leaf %d: user %d pending twice", leaf.ID, ui)
					}
					pend[ui] = true
				}
			}
		}
		if got := leaf.InCount + leaf.OutCount + len(pend); got != mt.NumUsers() {
			t.Fatalf("leaf %d (status %v): in=%d out=%d pending=%d sums to %d, alive %d",
				leaf.ID, leaf.Status, leaf.InCount, leaf.OutCount, len(pend), got, mt.NumUsers())
		}
	}
}

// TestRoutingByteIdentical is the localized-maintenance determinism
// contract: with routing enabled (the default) the maintained arrangement
// is byte-identical to the every-leaf sweep that Options.DisableRouting
// selects (the same descent with nothing deferred) — same cells in the
// same order, same halfspaces, same bounding boxes — across worker
// counts, for single-event application and coalesced batches alike. Only
// the locality profile may differ: the routed runs must skip subtrees and
// visit strictly fewer leaves, and both modes' routing counters must be
// identical for every worker count (they are charged between drains,
// outside the parallel sections).
func TestRoutingByteIdentical(t *testing.T) {
	baseRng := rand.New(rand.NewSource(61))
	ps := data.Independent(baseRng, 180, 3)
	us := data.WithK(data.ClusteredUsers(baseRng, 16, 3, 3, 0.08), 4)
	events := batchScript(rand.New(rand.NewSource(63)), 16, 3, 6, 36)
	m := 7

	mkMt := func(workers int, disable bool) *Maintainer {
		opts := Options{Workers: workers, DisableRouting: disable}
		inst, err := NewInstanceOpts(ps, deepCopyUsers(us), opts)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := NewMaintainer(inst, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return mt
	}
	applyChunked := func(mt *Maintainer) {
		t.Helper()
		for lo := 0; lo < len(events); lo += 9 {
			hi := lo + 9
			if hi > len(events) {
				hi = len(events)
			}
			if _, err := mt.ApplyBatch(events[lo:hi]); err != nil {
				t.Fatalf("chunk [%d,%d): %v", lo, hi, err)
			}
		}
	}
	applySingles := func(mt *Maintainer) {
		t.Helper()
		for i, ev := range events {
			var err error
			if ev.Kind == EventArrive {
				_, err = mt.AddUser(topk.UserPref{W: append(geom.Vector(nil), ev.User.W...), K: ev.User.K})
			} else {
				err = mt.RemoveUser(ev.Handle)
			}
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}

	var ref *Region
	var routedCounters, sweptCounters [3]int
	for wi, workers := range []int{1, 2, 4, 8} {
		routed := mkMt(workers, false)
		swept := mkMt(workers, true)
		applyChunked(routed)
		applyChunked(swept)

		rReg, sReg := routed.Region(), swept.Region()
		batchRegionsIdentical(t, "routed vs swept (chunked)", rReg, sReg)
		if ref == nil {
			ref = rReg
		} else {
			batchRegionsIdentical(t, "across worker counts", ref, rReg)
		}
		for _, st := range []Stats{rReg.Stats, sReg.Stats} {
			if st.CountDesyncs != 0 {
				t.Fatalf("workers=%d: %d count desyncs", workers, st.CountDesyncs)
			}
		}

		// Locality: routing must actually defer work, and visit strictly
		// fewer leaves than the sweep; the sweep must never defer.
		if rReg.Stats.SkippedSubtrees == 0 {
			t.Fatalf("workers=%d: routed run skipped no subtrees", workers)
		}
		if sReg.Stats.SkippedSubtrees != 0 {
			t.Fatalf("workers=%d: swept run reports %d skipped subtrees", workers, sReg.Stats.SkippedSubtrees)
		}
		if rReg.Stats.RoutedLeaves >= sReg.Stats.RoutedLeaves {
			t.Fatalf("workers=%d: routed visited %d leaves, sweep %d — no locality win",
				workers, rReg.Stats.RoutedLeaves, sReg.Stats.RoutedLeaves)
		}
		if rReg.Stats.TouchedFrontier != sReg.Stats.TouchedFrontier {
			t.Fatalf("workers=%d: routed re-verified %d leaves, sweep %d — frontiers must agree",
				workers, rReg.Stats.TouchedFrontier, sReg.Stats.TouchedFrontier)
		}
		// Order-free merges make the profile itself deterministic across
		// worker counts (per mode).
		rc := [3]int{rReg.Stats.RoutedLeaves, rReg.Stats.SkippedSubtrees, rReg.Stats.TouchedFrontier}
		sc := [3]int{sReg.Stats.RoutedLeaves, sReg.Stats.SkippedSubtrees, sReg.Stats.TouchedFrontier}
		if wi == 0 {
			routedCounters, sweptCounters = rc, sc
		} else if rc != routedCounters || sc != sweptCounters {
			t.Fatalf("workers=%d: routing counters not worker-invariant: routed %v (want %v), swept %v (want %v)",
				workers, rc, routedCounters, sc, sweptCounters)
		}

		// Single-event application (AddUser/RemoveUser are one-event
		// batches) must land on the same bytes; batch-vs-sequential per
		// mode is already pinned elsewhere, so one worker count suffices
		// for the mode cross.
		if workers == 1 {
			routedSeq := mkMt(workers, false)
			sweptSeq := mkMt(workers, true)
			applySingles(routedSeq)
			applySingles(sweptSeq)
			batchRegionsIdentical(t, "routed single-event", rReg, routedSeq.Region())
			batchRegionsIdentical(t, "swept single-event", rReg, sweptSeq.Region())

			// Settling the routed backlog is pure bookkeeping: the region
			// does not move, and the fully-settled payloads obey the
			// maintained accounting invariant counts + pending = alive on
			// every non-empty leaf. (The exact-reclassification audit of
			// invariant_test.go is not applicable after heavy churn: it
			// re-counts departed users' halfspaces too.)
			routedSeq.settleAll()
			batchRegionsIdentical(t, "after settleAll", rReg, routedSeq.Region())
			auditAliveAccounting(t, routedSeq)
		}

		checkMaintainerOracle(t, routed, m, rand.New(rand.NewSource(67)), 400)
	}
}
