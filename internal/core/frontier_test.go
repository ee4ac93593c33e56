package core

import (
	"math/rand"
	"runtime"
	"testing"

	"mir/internal/data"
)

// TestFrontierParallelByteIdentical pins the frontier scheduler's
// determinism contract at full strength: for every worker count, the
// finished arrangement — leaf IDs, statuses, counts, depths — and the
// exported region are byte-identical to the sequential run, and every
// Stats counter matches exactly (one goroutine processes each cell, so
// even the raw test counters cannot diverge). Only MaxFrontier, which
// profiles the schedule itself, is exempt.
func TestFrontierParallelByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		d, nP, nU, k int
		opts         Options
	}{
		{3, 400, 32, 6, Options{}},
		{3, 400, 32, 6, Options{DisablePruning: true}},
		{3, 400, 32, 6, Options{GroupChoice: SmallestGroup}},
		{2, 300, 40, 5, Options{}},
		{4, 300, 24, 6, Options{}},
	}
	for ci, tc := range cases {
		inst := randomInstance(t, rng, tc.nP, tc.nU, tc.d, tc.k)
		for _, m := range []int{1, tc.nU / 3, tc.nU / 2} {
			if m < 1 {
				m = 1
			}
			seqOpts := tc.opts
			seqOpts.Workers = 1
			ref, err := runAA(inst, m, seqOpts)
			if err != nil {
				t.Fatalf("case %d m=%d sequential: %v", ci, m, err)
			}
			refLeaves := ref.tr.Leaves(nil, nil)
			refReg := ref.region()
			for _, workers := range []int{2, 4, 8} {
				parOpts := tc.opts
				parOpts.Workers = workers
				got, err := runAA(inst, m, parOpts)
				if err != nil {
					t.Fatalf("case %d m=%d workers=%d: %v", ci, m, workers, err)
				}
				gotLeaves := got.tr.Leaves(nil, nil)
				if len(gotLeaves) != len(refLeaves) {
					t.Fatalf("case %d m=%d workers=%d: %d leaves, want %d",
						ci, m, workers, len(gotLeaves), len(refLeaves))
				}
				for i := range refLeaves {
					a, b := refLeaves[i], gotLeaves[i]
					if a.ID != b.ID || a.Depth != b.Depth || a.Status != b.Status ||
						a.InCount != b.InCount || a.OutCount != b.OutCount {
						t.Fatalf("case %d m=%d workers=%d leaf %d diverges: "+
							"id %d/%d depth %d/%d status %v/%v in %d/%d out %d/%d",
							ci, m, workers, i, a.ID, b.ID, a.Depth, b.Depth,
							a.Status, b.Status, a.InCount, b.InCount, a.OutCount, b.OutCount)
					}
				}
				gotReg := got.region()
				regionsIdentical(t, refReg, gotReg)
				sa, sb := refReg.Stats, gotReg.Stats
				sa.MaxFrontier, sb.MaxFrontier = 0, 0
				if sa != sb {
					t.Fatalf("case %d m=%d workers=%d: stats diverge:\nseq %+v\npar %+v",
						ci, m, workers, sa, sb)
				}
				if gotReg.Sched == nil {
					t.Fatalf("case %d m=%d workers=%d: no scheduler stats", ci, m, workers)
				}
				if gotReg.Sched.Workers != workers {
					t.Fatalf("case %d m=%d workers=%d: Sched.Workers=%d",
						ci, m, workers, gotReg.Sched.Workers)
				}
				total := 0
				for _, n := range gotReg.Sched.PerWorkerCells {
					total += n
				}
				if total != gotReg.Stats.Iterations {
					t.Fatalf("case %d m=%d workers=%d: per-worker cells sum to %d, Iterations %d",
						ci, m, workers, total, gotReg.Stats.Iterations)
				}
				if refReg.Sched != nil {
					t.Fatalf("case %d m=%d: sequential run unexpectedly has scheduler stats", ci, m)
				}
			}
		}
	}
}

// TestFrontierParallelMaintainer runs the incremental path (arrivals and
// departures) at several worker counts and checks the arrangements stay
// byte-identical after every event — the dynamic counterpart of
// TestFrontierParallelByteIdentical, at the core layer.
func TestFrontierParallelMaintainer(t *testing.T) {
	m := 8
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	mts := make([]*Maintainer, len(workerCounts))
	for i, w := range workerCounts {
		// Each maintainer needs its own instance: AddUser mutates it.
		own := randomInstance(t, rand.New(rand.NewSource(43)), 300, 20, 3, 5)
		mt, err := NewMaintainer(own, m, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		mts[i] = mt
	}

	check := func(step string) {
		t.Helper()
		ref := mts[0].Region()
		for i, mt := range mts[1:] {
			got := mt.Region()
			regionsIdentical(t, ref, got)
			sa, sb := ref.Stats, got.Stats
			sa.MaxFrontier, sb.MaxFrontier = 0, 0
			if sa != sb {
				t.Fatalf("%s workers=%d: stats diverge:\nseq %+v\npar %+v",
					step, workerCounts[i+1], sa, sb)
			}
		}
	}
	check("initial")

	// A deterministic event script replayed against every maintainer.
	eventRng := rand.New(rand.NewSource(97))
	handles := make([]int, 20)
	for i := range handles {
		handles[i] = i
	}
	for step := 0; step < 8; step++ {
		if len(handles) > m+2 && eventRng.Intn(2) == 0 {
			// Departure of a random live user.
			pick := eventRng.Intn(len(handles))
			h := handles[pick]
			handles = append(handles[:pick], handles[pick+1:]...)
			for i, mt := range mts {
				if err := mt.RemoveUser(h); err != nil {
					t.Fatalf("step %d workers=%d remove: %v", step, workerCounts[i], err)
				}
			}
		} else {
			// Arrival of a fresh random user.
			u := data.WithK(data.ClusteredUsers(eventRng, 1, 3, 1, 0.08), 5)[0]
			var newH int
			for i, mt := range mts {
				h, err := mt.AddUser(u)
				if err != nil {
					t.Fatalf("step %d workers=%d add: %v", step, workerCounts[i], err)
				}
				if i == 0 {
					newH = h
				} else if h != newH {
					t.Fatalf("step %d: handles diverge: %d vs %d", step, h, newH)
				}
			}
			handles = append(handles, newH)
		}
		check("step")
	}
}
