package core

import (
	"math"
	"math/rand"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// batchRegionsIdentical asserts byte-identity of two regions: same cells in the
// same order, each with the exact same halfspaces and bounding boxes.
func batchRegionsIdentical(t *testing.T, label string, a, b *Region) {
	t.Helper()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("%s: %d cells vs %d", label, len(a.Cells), len(b.Cells))
	}
	for ci := range a.Cells {
		ha, hb := a.Cells[ci].Hs, b.Cells[ci].Hs
		if len(ha) != len(hb) {
			t.Fatalf("%s: cell %d has %d constraints vs %d", label, ci, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i].T != hb[i].T {
				t.Fatalf("%s: cell %d constraint %d T %v vs %v", label, ci, i, ha[i].T, hb[i].T)
			}
			for j := range ha[i].W {
				if ha[i].W[j] != hb[i].W[j] {
					t.Fatalf("%s: cell %d constraint %d W[%d] %v vs %v",
						label, ci, i, j, ha[i].W[j], hb[i].W[j])
				}
			}
		}
		for corner := 0; corner < 2; corner++ {
			ca, cb := a.MBBs[ci][corner], b.MBBs[ci][corner]
			for j := range ca {
				if ca[j] != cb[j] {
					t.Fatalf("%s: cell %d MBB[%d][%d] %v vs %v", label, ci, corner, j, ca[j], cb[j])
				}
			}
		}
	}
}

// batchScript is a reproducible event sequence over an instance with nU
// initial users: arrivals of random users and departures of handles
// present at that point of the sequence, including departures of arrivals
// from the same script.
func batchScript(rng *rand.Rand, nU, d, kmax, steps int) []Event {
	events := make([]Event, 0, steps)
	present := make([]int, nU)
	for i := range present {
		present[i] = i
	}
	next := nU
	for len(events) < steps {
		switch {
		case rng.Intn(3) > 0 || len(present) == 0:
			w := data.UniformUsers(rng, 1, d)[0]
			events = append(events, Event{Kind: EventArrive,
				User: topk.UserPref{W: w, K: 1 + rng.Intn(kmax)}})
			present = append(present, next)
			next++
		default:
			i := rng.Intn(len(present))
			events = append(events, Event{Kind: EventDepart, Handle: present[i]})
			present = append(present[:i], present[i+1:]...)
		}
	}
	return events
}

func deepCopyUsers(users []topk.UserPref) []topk.UserPref {
	out := make([]topk.UserPref, len(users))
	for i, u := range users {
		out[i] = topk.UserPref{W: append(geom.Vector(nil), u.W...), K: u.K}
	}
	return out
}

// TestMaintainerBatchMatchesSequential is the coalescing determinism
// contract: ApplyBatch over N events yields an arrangement byte-identical
// to N AddUser/RemoveUser calls, and equal Stats, across worker counts,
// both as one batch and chunked. MaxFrontier is compared only at one
// worker, where it does not depend on scheduling.
func TestMaintainerBatchMatchesSequential(t *testing.T) {
	baseRng := rand.New(rand.NewSource(41))
	ps := data.Independent(baseRng, 150, 3)
	us := data.WithK(data.ClusteredUsers(baseRng, 12, 3, 3, 0.08), 4)
	events := batchScript(rand.New(rand.NewSource(43)), 12, 3, 6, 30)
	m := 6

	var refRegion *Region
	for _, workers := range []int{1, 2, 4, 8} {
		opts := Options{Workers: workers}
		newMt := func() *Maintainer {
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

		seq := newMt()
		var seqHandles []int
		for i, ev := range events {
			if ev.Kind == EventArrive {
				h, err := seq.AddUser(topk.UserPref{W: append(geom.Vector(nil), ev.User.W...), K: ev.User.K})
				if err != nil {
					t.Fatalf("workers=%d event %d: %v", workers, i, err)
				}
				seqHandles = append(seqHandles, h)
			} else {
				if err := seq.RemoveUser(ev.Handle); err != nil {
					t.Fatalf("workers=%d event %d: %v", workers, i, err)
				}
				seqHandles = append(seqHandles, -1)
			}
		}

		bat := newMt()
		handles, err := bat.ApplyBatch(events)
		if err != nil {
			t.Fatalf("workers=%d: ApplyBatch: %v", workers, err)
		}
		if len(handles) != len(seqHandles) {
			t.Fatalf("workers=%d: %d handles vs %d", workers, len(handles), len(seqHandles))
		}
		for i := range handles {
			if handles[i] != seqHandles[i] {
				t.Fatalf("workers=%d: handle[%d] = %d, sequential %d", workers, i, handles[i], seqHandles[i])
			}
		}
		if bat.NumUsers() != seq.NumUsers() {
			t.Fatalf("workers=%d: NumUsers %d vs %d", workers, bat.NumUsers(), seq.NumUsers())
		}

		chunked := newMt()
		for lo := 0; lo < len(events); lo += 7 {
			hi := lo + 7
			if hi > len(events) {
				hi = len(events)
			}
			if _, err := chunked.ApplyBatch(events[lo:hi]); err != nil {
				t.Fatalf("workers=%d: chunk [%d,%d): %v", workers, lo, hi, err)
			}
		}

		seqReg, batReg, chReg := seq.Region(), bat.Region(), chunked.Region()
		batchRegionsIdentical(t, "batch vs sequential", seqReg, batReg)
		batchRegionsIdentical(t, "chunked vs sequential", seqReg, chReg)
		if refRegion == nil {
			refRegion = batReg
		} else {
			batchRegionsIdentical(t, "across worker counts", refRegion, batReg)
		}
		stats := []Stats{seqReg.Stats, batReg.Stats, chReg.Stats}
		for i := range stats {
			if stats[i].CountDesyncs != 0 {
				t.Fatalf("workers=%d: %d count desyncs", workers, stats[i].CountDesyncs)
			}
			if workers > 1 {
				stats[i].MaxFrontier = 0
			}
		}
		if stats[1] != stats[0] {
			t.Fatalf("workers=%d: batch Stats differ from sequential:\n%+v\n%+v", workers, stats[1], stats[0])
		}
		if stats[2] != stats[0] {
			t.Fatalf("workers=%d: chunked Stats differ from sequential:\n%+v\n%+v", workers, stats[2], stats[0])
		}
		checkMaintainerOracle(t, bat, m, rand.New(rand.NewSource(47)), 800)
	}
}

// TestMaintainerBatchDepartJustArrived covers arrivals departed inside the
// same batch, including a user who arrives and departs with no drain in
// between.
func TestMaintainerBatchDepartJustArrived(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ps := data.Independent(rng, 120, 2)
	us := data.WithK(data.ClusteredUsers(rng, 10, 2, 3, 0.08), 3)
	m := 5
	newMt := func() *Maintainer {
		inst, err := NewInstance(ps, deepCopyUsers(us))
		if err != nil {
			t.Fatal(err)
		}
		mt, err := NewMaintainer(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return mt
	}
	w1 := data.UniformUsers(rng, 1, 2)[0]
	w2 := data.UniformUsers(rng, 1, 2)[0]
	events := []Event{
		{Kind: EventArrive, User: topk.UserPref{W: w1, K: 2}},
		{Kind: EventDepart, Handle: 10}, // the arrival above
		{Kind: EventDepart, Handle: 3},
		{Kind: EventArrive, User: topk.UserPref{W: w2, K: 4}},
		{Kind: EventDepart, Handle: 11}, // w2's handle
	}
	seq := newMt()
	for _, ev := range events {
		if ev.Kind == EventArrive {
			if _, err := seq.AddUser(topk.UserPref{W: append(geom.Vector(nil), ev.User.W...), K: ev.User.K}); err != nil {
				t.Fatal(err)
			}
		} else if err := seq.RemoveUser(ev.Handle); err != nil {
			t.Fatal(err)
		}
	}
	bat := newMt()
	handles, err := bat.ApplyBatch(events)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, -1, -1, 11, -1}
	for i := range want {
		if handles[i] != want[i] {
			t.Fatalf("handles = %v, want %v", handles, want)
		}
	}
	batchRegionsIdentical(t, "same-batch arrive+depart", seq.Region(), bat.Region())
	if bat.NumUsers() != 9 {
		t.Fatalf("NumUsers = %d, want 9", bat.NumUsers())
	}
}

// TestMaintainerBatchAtomicity: an invalid event anywhere in the batch
// must reject the whole batch with no state change.
func TestMaintainerBatchAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	inst := randomInstance(t, rng, 100, 10, 3, 4)
	mt, err := NewMaintainer(inst, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := mt.Region()
	w := data.UniformUsers(rng, 1, 3)[0]
	bad := [][]Event{
		{{Kind: EventArrive, User: topk.UserPref{W: w, K: 3}}, {Kind: EventDepart, Handle: 77}},
		{{Kind: EventDepart, Handle: 2}, {Kind: EventDepart, Handle: 2}},
		{{Kind: EventArrive, User: topk.UserPref{W: w[:2], K: 3}}},
		{{Kind: EventArrive, User: topk.UserPref{W: w, K: 0}}},
		{{Kind: EventArrive, User: topk.UserPref{W: w, K: 101}}},
	}
	for i, events := range bad {
		if _, err := mt.ApplyBatch(events); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if got := mt.NumUsers(); got != 10 {
			t.Fatalf("bad batch %d changed NumUsers to %d", i, got)
		}
		if n := len(mt.run.inst.Users); n != 10 || len(mt.rows) != 10 ||
			len(mt.run.inst.HS) != 10 || len(mt.run.inst.Kth) != 10 || len(mt.run.inst.WProj) != 10 {
			t.Fatalf("bad batch %d left partial appends (users=%d)", i, n)
		}
	}
	batchRegionsIdentical(t, "after rejected batches", before, mt.Region())
}

// TestMaintainerAddUserAtomicity: a rejected AddUser must not consume a
// handle or leave the instance arrays partially appended.
func TestMaintainerAddUserAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	inst := randomInstance(t, rng, 80, 8, 3, 3)
	mt, err := NewMaintainer(inst, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantNext := mt.NextHandle()
	w3 := data.UniformUsers(rng, 1, 3)[0]
	bads := []topk.UserPref{
		{W: w3[:2], K: 2},               // dim mismatch
		{W: w3, K: 0},                   // k too small
		{W: w3, K: 81},                  // k beyond |P|
		{W: append(w3, 0.1, 0.2), K: 2}, // dim mismatch the other way
	}
	for i, u := range bads {
		h, err := mt.AddUser(u)
		if err == nil {
			t.Fatalf("bad arrival %d accepted", i)
		}
		if h != -1 {
			t.Fatalf("bad arrival %d returned handle %d, want -1", i, h)
		}
		if mt.NextHandle() != wantNext {
			t.Fatalf("bad arrival %d consumed a handle: next %d, want %d", i, mt.NextHandle(), wantNext)
		}
		if len(mt.run.inst.Users) != 8 || len(mt.run.inst.HS) != 8 ||
			len(mt.run.inst.Kth) != 8 || len(mt.run.inst.WProj) != 8 {
			t.Fatalf("bad arrival %d left partial instance appends", i)
		}
	}
	if h, err := mt.AddUser(topk.UserPref{W: w3, K: 3}); err != nil || h != wantNext {
		t.Fatalf("good arrival after failures: handle %d err %v, want %d", h, err, wantNext)
	}
}

// TestMaintainerDesyncRegression exercises remove-after-reactivate churn:
// demote reported cells, revive eliminated ones, and remove users whose
// views were redistributed by those drains. The desync counter must stay
// zero and the maintained region must stay exact.
func TestMaintainerDesyncRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range []int{2, 3} {
		ps := data.Independent(rng, 150, d)
		us := data.WithK(data.ClusteredUsers(rng, 12, d, 3, 0.08), 4)
		inst, err := NewInstance(ps, deepCopyUsers(us))
		if err != nil {
			t.Fatal(err)
		}
		m := 6
		mt, err := NewMaintainer(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Shrink below m to demote reports, regrow to revive eliminations,
		// then remove both original and re-added users.
		for _, idx := range []int{0, 1, 2, 3, 4, 5, 6} {
			if err := mt.RemoveUser(idx); err != nil {
				t.Fatal(err)
			}
		}
		var added []int
		for i := 0; i < 7; i++ {
			w := data.UniformUsers(rng, 1, d)[0]
			h, err := mt.AddUser(topk.UserPref{W: w, K: 1 + rng.Intn(5)})
			if err != nil {
				t.Fatal(err)
			}
			added = append(added, h)
		}
		for _, idx := range []int{added[0], added[3], 7, added[5]} {
			if err := mt.RemoveUser(idx); err != nil {
				t.Fatal(err)
			}
		}
		if n := mt.run.st.CountDesyncs; n != 0 {
			t.Fatalf("d=%d: remove-after-reactivate recorded %d desyncs", d, n)
		}
		if got := mt.Region().Stats.CountDesyncs; got != 0 {
			t.Fatalf("d=%d: region stats report %d desyncs", d, got)
		}
		checkMaintainerOracle(t, mt, m, rng, 1000)
	}
}

// TestMaintainerMinBoundaryGapEmpty pins the empty-population contract:
// with nobody alive the gap is +Inf, not a finite sentinel.
func TestMaintainerMinBoundaryGapEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	inst := randomInstance(t, rng, 60, 3, 2, 2)
	mt, err := NewMaintainer(inst, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Vector{0.5, 0.5}
	if g := mt.MinBoundaryGap(p); math.IsInf(g, 1) {
		t.Fatalf("gap with 3 alive users is +Inf")
	}
	for i := 0; i < 3; i++ {
		if err := mt.RemoveUser(i); err != nil {
			t.Fatal(err)
		}
	}
	if g := mt.MinBoundaryGap(p); !math.IsInf(g, 1) {
		t.Fatalf("gap with no alive users = %v, want +Inf", g)
	}
	if g := mt.Snapshot().MinBoundaryGap(p); !math.IsInf(g, 1) {
		t.Fatalf("snapshot gap with no alive users = %v, want +Inf", g)
	}
}

// TestMaintainerSnapshotImmutable: a snapshot keeps answering from its
// capture-time state while the Maintainer churns on.
func TestMaintainerSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	inst := randomInstance(t, rng, 120, 10, 3, 4)
	m := 5
	mt, err := NewMaintainer(inst, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := mt.Snapshot()
	wantUsers := snap.NumUsers()
	probes := make([]geom.Vector, 50)
	wantCover := make([]int, len(probes))
	for i := range probes {
		p := make(geom.Vector, 3)
		for j := range p {
			p[j] = rng.Float64()
		}
		probes[i] = p
		wantCover[i] = snap.CountCovering(p)
	}
	wantCells := len(snap.Region().Cells)
	wantInfl := snap.MostInfluential(5)

	for step := 0; step < 6; step++ {
		w := data.UniformUsers(rng, 1, 3)[0]
		if _, err := mt.AddUser(topk.UserPref{W: w, K: 3}); err != nil {
			t.Fatal(err)
		}
		if err := mt.RemoveUser(step); err != nil {
			t.Fatal(err)
		}
	}

	if snap.NumUsers() != wantUsers {
		t.Fatalf("snapshot NumUsers drifted: %d vs %d", snap.NumUsers(), wantUsers)
	}
	if got := len(snap.Region().Cells); got != wantCells {
		t.Fatalf("snapshot cell count drifted: %d vs %d", got, wantCells)
	}
	for i, p := range probes {
		if got := snap.CountCovering(p); got != wantCover[i] {
			t.Fatalf("snapshot coverage drifted at %v: %d vs %d", p, got, wantCover[i])
		}
	}
	gotInfl := snap.MostInfluential(5)
	for i := range wantInfl {
		if gotInfl[i] != wantInfl[i] {
			t.Fatalf("snapshot influence drifted: %v vs %v", gotInfl, wantInfl)
		}
	}
}
