package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// checkMaintainerOracle verifies the maintained region against the alive
// population by sampling: in-region iff covering >= m alive users.
func checkMaintainerOracle(t *testing.T, mt *Maintainer, m int, rng *rand.Rand, probes int) {
	t.Helper()
	reg := mt.Region()
	for i := 0; i < probes; i++ {
		p := make(geom.Vector, mt.run.inst.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		if mt.MinBoundaryGap(p) < 1e-6 {
			continue
		}
		covers := mt.CountCovering(p)
		if (covers >= m) != reg.Contains(p) {
			t.Fatalf("maintained region wrong at %v: covers %d (m=%d, |U|=%d) contains=%v",
				p, covers, m, mt.NumUsers(), reg.Contains(p))
		}
	}
}

// aliveRows returns the set of instance rows the alive users occupy.
func aliveRows(mt *Maintainer) map[int]bool {
	alive := make(map[int]bool, len(mt.rows))
	for _, r := range mt.rows {
		alive[r] = true
	}
	return alive
}

// aliveUsers returns the alive users in handle order.
func aliveUsers(mt *Maintainer) []topk.UserPref {
	handles := make([]int, 0, len(mt.rows))
	for h := range mt.rows {
		handles = append(handles, h)
	}
	sort.Ints(handles)
	users := make([]topk.UserPref, len(handles))
	for i, h := range handles {
		users[i] = mt.run.inst.Users[mt.rows[h]]
	}
	return users
}

// checkFreshRegion compares the maintained region against a fresh AA over
// the alive users by sampling points away from every boundary.
func checkFreshRegion(t *testing.T, mt *Maintainer, ps []geom.Vector, rng *rand.Rand, probes int) {
	t.Helper()
	fresh, err := NewInstance(ps, aliveUsers(mt))
	if err != nil {
		t.Fatal(err)
	}
	freshReg, err := AA(fresh, mt.m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maintained := mt.Region()
	for probe := 0; probe < probes; probe++ {
		p := make(geom.Vector, fresh.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		if fresh.MinBoundaryGap(p) < 1e-6 {
			continue
		}
		if freshReg.Contains(p) != maintained.Contains(p) {
			t.Fatalf("maintained and fresh regions disagree at %v (covers %d)",
				p, fresh.CountCovering(p))
		}
	}
}

func TestMaintainerAddUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(t, rng, 200, 15, 3, 5)
	m := 8
	mt, err := NewMaintainer(inst, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkMaintainerOracle(t, mt, m, rng, 1200)
	for i := 0; i < 6; i++ {
		w := data.UniformUsers(rng, 1, 3)[0]
		if _, err := mt.AddUser(topk.UserPref{W: w, K: 1 + rng.Intn(8)}); err != nil {
			t.Fatal(err)
		}
		checkMaintainerOracle(t, mt, m, rng, 800)
	}
	if mt.NumUsers() != 21 {
		t.Errorf("NumUsers = %d, want 21", mt.NumUsers())
	}
}

func TestMaintainerRemoveUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(t, rng, 200, 18, 3, 5)
	m := 8
	mt, err := NewMaintainer(inst, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := rng.Perm(18)
	for i := 0; i < 8; i++ {
		if err := mt.RemoveUser(order[i]); err != nil {
			t.Fatal(err)
		}
		checkMaintainerOracle(t, mt, m, rng, 800)
	}
	if mt.NumUsers() != 10 {
		t.Errorf("NumUsers = %d, want 10", mt.NumUsers())
	}
}

// TestMaintainerChurn interleaves arrivals and departures and cross-checks
// against a from-scratch recomputation at the end.
func TestMaintainerChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 3} {
		ps := data.Independent(rng, 200, d)
		ws := data.ClusteredUsers(rng, 14, d, 3, 0.08)
		users := data.WithK(ws, 5)
		inst, err := NewInstance(ps, users)
		if err != nil {
			t.Fatal(err)
		}
		m := 7
		mt, err := NewMaintainer(inst, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		aliveSet := map[int]bool{}
		for i := 0; i < 14; i++ {
			aliveSet[i] = true
		}
		for step := 0; step < 12; step++ {
			if rng.Intn(2) == 0 || len(aliveSet) <= m {
				w := data.UniformUsers(rng, 1, d)[0]
				idx, err := mt.AddUser(topk.UserPref{W: w, K: 1 + rng.Intn(6)})
				if err != nil {
					t.Fatal(err)
				}
				aliveSet[idx] = true
			} else {
				var victim int
				for idx := range aliveSet {
					victim = idx
					break
				}
				delete(aliveSet, victim)
				if err := mt.RemoveUser(victim); err != nil {
					t.Fatal(err)
				}
			}
			checkMaintainerOracle(t, mt, m, rng, 500)
		}
		// Final cross-check against a fresh AA run over the alive users.
		checkFreshRegion(t, mt, ps, rng, 2000)
	}
}

// TestMaintainerReclaimsRows runs a long session stream, one event per
// ApplyBatch, across a log compaction: departed users' rows must be
// recycled, so the instance holds at most the peak population plus the
// departures the log can hold, and fewer rows than the stream's residents
// plus arrivals.
func TestMaintainerReclaimsRows(t *testing.T) {
	const nP, nPool, nU, d, k, m, steps = 120, 14, 10, 3, 5, 5, 2648
	rng := rand.New(rand.NewSource(71))
	ps := data.Independent(rng, nP, d)
	pool := data.WithK(data.ClusteredUsers(rng, nPool, d, 3, 0.08), k)
	events := sessionScript(rng, pool, nU, steps)
	opts := Options{Workers: 1}
	inst, err := NewInstanceOpts(ps, deepCopyUsers(pool[:nU]), opts)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(inst, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	peak, arrivals := nU, 0
	for e := range events {
		if _, err := mt.ApplyBatch(events[e : e+1]); err != nil {
			t.Fatalf("event %d: %v", e, err)
		}
		if events[e].Kind == EventArrive {
			arrivals++
		}
		peak = max(peak, mt.NumUsers())
		if rows := len(inst.Users); rows > peak+routeLogCap {
			t.Fatalf("event %d: %d rows, peak population %d plus log capacity %d",
				e, rows, peak, routeLogCap)
		}
	}
	rows := len(inst.Users)
	t.Logf("%d events: %d rows for %d alive users (%d residents + %d arrivals)",
		steps, rows, mt.NumUsers(), nU, arrivals)
	if rows >= nU+arrivals {
		t.Errorf("%d rows, want fewer than %d residents plus %d arrivals", rows, nU, arrivals)
	}
	if n := mt.Region().Stats.CountDesyncs; n != 0 {
		t.Errorf("%d count desyncs", n)
	}
	checkFreshRegion(t, mt, ps, rng, 2000)
	mt.settleAll()
	auditAliveAccounting(t, mt)
}

func TestMaintainerErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := randomInstance(t, rng, 100, 8, 2, 3)
	mt, err := NewMaintainer(inst, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.AddUser(topk.UserPref{W: geom.Vector{0.5, 0.3, 0.2}, K: 3}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := mt.AddUser(topk.UserPref{W: geom.Vector{0.5, 0.5}, K: 0}); err == nil {
		t.Error("bad k accepted")
	}
	if _, err := mt.AddUser(topk.UserPref{W: geom.Vector{1.3, -0.3}, K: 3}); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("negative weight: err = %v, want ErrNegativeWeight", err)
	}
	if err := mt.RemoveUser(99); err == nil {
		t.Error("bad index accepted")
	}
	if err := mt.RemoveUser(3); err != nil {
		t.Fatal(err)
	}
	if err := mt.RemoveUser(3); err == nil {
		t.Error("double removal accepted")
	}
}

// TestMaintainerCheaperThanRecompute: incremental work after one arrival
// should create far fewer new cells than recomputing from scratch.
func TestMaintainerIncrementalWork(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := randomInstance(t, rng, 400, 40, 3, 10)
	m := 20
	mt, err := NewMaintainer(inst, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := mt.run.tr.Stats.CellsCreated
	w := data.UniformUsers(rng, 1, 3)[0]
	if _, err := mt.AddUser(topk.UserPref{W: w, K: 10}); err != nil {
		t.Fatal(err)
	}
	added := mt.run.tr.Stats.CellsCreated - cellsBefore
	if added > cellsBefore/2 {
		t.Errorf("incremental add created %d cells on top of %d — not incremental",
			added, cellsBefore)
	}
}

// BenchmarkStandingApply times maintenance on the standing shape: IND
// |P|=2000, d=3, k=10, 40 residents of a 50-user clustered session pool,
// m=20, Workers 1, after 120 warm-up events applied 12 per ApplyBatch.
// "single" then applies one event per call, "burst48" 48; an op is one
// call, and the per-event time, containment tests, pivots, staged leaves
// and fired leaves are reported alongside. Each run rebuilds and re-warms
// the arrangement outside the timer.
func BenchmarkStandingApply(b *testing.B) {
	const nP, nPool, nU, d, k, m = 2000, 50, 40, 3, 10, 20
	const warmup, warmBatch = 120, 12
	for _, bc := range []struct {
		name  string
		batch int
	}{{"single", 1}, {"burst48", 48}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			ps := data.Independent(rng, nP, d)
			pool := data.WithK(data.ClusteredUsers(rng, nPool, d, 5, 0.05), k)
			// The script's prefix does not depend on its length, so every
			// b.N warms up on the same events.
			events := sessionScript(rng, pool, nU, warmup+b.N*bc.batch)
			opts := Options{Workers: 1}
			inst, err := NewInstanceOpts(ps, deepCopyUsers(pool[:nU]), opts)
			if err != nil {
				b.Fatal(err)
			}
			mt, err := NewMaintainer(inst, m, opts)
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < warmup; lo += warmBatch {
				if _, err := mt.ApplyBatch(events[lo : lo+warmBatch]); err != nil {
					b.Fatal(err)
				}
			}
			st0 := mt.Region().Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := warmup + i*bc.batch
				if _, err := mt.ApplyBatch(events[lo : lo+bc.batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st1 := mt.Region().Stats
			n := float64(b.N * bc.batch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(st1.ContainmentTests-st0.ContainmentTests)/n, "tests/event")
			b.ReportMetric(float64(st1.Pivots-st0.Pivots)/n, "pivots/event")
			b.ReportMetric(float64(st1.RoutedLeaves-st0.RoutedLeaves)/n, "leaves/event")
			b.ReportMetric(float64(st1.TouchedFrontier-st0.TouchedFrontier)/n, "fired/event")
		})
	}
}
