package mir

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestMonitorLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps, us := fixture(rng, 200, 12, 3, 5)
	const m = 6
	mo, err := NewMonitor(ps, us, m)
	if err != nil {
		t.Fatal(err)
	}
	if mo.NumUsers() != 12 {
		t.Fatalf("NumUsers = %d", mo.NumUsers())
	}

	verify := func() {
		t.Helper()
		reg := mo.Region()
		for probe := 0; probe < 600; probe++ {
			p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			cov := mo.Coverage(p)
			if cov == m || cov == m-1 {
				continue // skip near-threshold points
			}
			if (cov >= m) != reg.Contains(p) {
				t.Fatalf("monitor contract violated at %v: coverage %d, contains %v",
					p, cov, reg.Contains(p))
			}
		}
	}
	verify()

	// Arrivals.
	var handles []int
	for i := 0; i < 4; i++ {
		_, newbies := fixture(rng, 1, 1, 3, 3)
		h, err := mo.UserArrived(newbies[0])
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		verify()
	}
	if mo.NumUsers() != 16 {
		t.Fatalf("NumUsers after arrivals = %d", mo.NumUsers())
	}

	// Departures: two originals, two newcomers.
	for _, h := range []int{0, 5, handles[0], handles[2]} {
		if err := mo.UserDeparted(h); err != nil {
			t.Fatal(err)
		}
		verify()
	}
	if mo.NumUsers() != 12 {
		t.Fatalf("NumUsers after departures = %d", mo.NumUsers())
	}

	// Error paths.
	if err := mo.UserDeparted(0); err == nil {
		t.Error("double departure accepted")
	}
	if _, err := mo.UserArrived(User{Weights: []float64{1}, K: 1}); err == nil {
		t.Error("wrong-dimension arrival accepted")
	}
}

// TestMonitorParallelDeterminism replays one random arrival/departure
// script against monitors running at different worker counts and demands
// byte-identical regions after every event: same cell count, same cell
// order, and per-cell identical constraint lists. This pins the dynamic
// path (Maintainer reprocessing through the task-parallel frontier) to
// the same determinism contract as one-shot computations.
func TestMonitorParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ps, us := fixture(rng, 250, 16, 3, 5)
	const m = 7

	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	mos := make([]*Monitor, len(workerCounts))
	for i, w := range workerCounts {
		mo, err := NewMonitorOptions(ps, us, m, &Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		mos[i] = mo
	}

	check := func(step int) {
		t.Helper()
		ref := mos[0].Region().Cells()
		for i, mo := range mos[1:] {
			got := mo.Region().Cells()
			if len(got) != len(ref) {
				t.Fatalf("step %d workers=%d: %d cells, want %d",
					step, workerCounts[i+1], len(got), len(ref))
			}
			for ci := range ref {
				a, b := ref[ci].Constraints(), got[ci].Constraints()
				if len(a) != len(b) {
					t.Fatalf("step %d workers=%d cell %d: %d constraints, want %d",
						step, workerCounts[i+1], ci, len(b), len(a))
				}
				for j := range a {
					if a[j].T != b[j].T {
						t.Fatalf("step %d workers=%d cell %d constraint %d: thresholds differ",
							step, workerCounts[i+1], ci, j)
					}
					for k := range a[j].W {
						if a[j].W[k] != b[j].W[k] {
							t.Fatalf("step %d workers=%d cell %d constraint %d coord %d differs",
								step, workerCounts[i+1], ci, j, k)
						}
					}
				}
			}
		}
	}
	check(-1)

	// One deterministic event script, replayed against every monitor.
	eventRng := rand.New(rand.NewSource(67))
	handles := make([]int, 16)
	for i := range handles {
		handles[i] = i
	}
	for step := 0; step < 10; step++ {
		if len(handles) > m+2 && eventRng.Intn(2) == 0 {
			pick := eventRng.Intn(len(handles))
			h := handles[pick]
			handles = append(handles[:pick], handles[pick+1:]...)
			for i, mo := range mos {
				if err := mo.UserDeparted(h); err != nil {
					t.Fatalf("step %d workers=%d depart: %v", step, workerCounts[i], err)
				}
			}
		} else {
			_, newcomer := fixture(eventRng, 1, 1, 3, 4)
			var newH int
			for i, mo := range mos {
				h, err := mo.UserArrived(newcomer[0])
				if err != nil {
					t.Fatalf("step %d workers=%d arrive: %v", step, workerCounts[i], err)
				}
				if i == 0 {
					newH = h
				} else if h != newH {
					t.Fatalf("step %d: handles diverge: %d vs %d", step, h, newH)
				}
			}
			handles = append(handles, newH)
		}
		check(step)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps, us := fixture(rng, 50, 6, 2, 3)
	if _, err := NewMonitor(ps, us, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewMonitor(ps, us, 7); err == nil {
		t.Error("m>|U| accepted")
	}
	if _, err := NewMonitor(nil, us, 3); err == nil {
		t.Error("empty products accepted")
	}
}

func TestReverseTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps, us := fixture(rng, 150, 15, 3, 5)
	a, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pi := range ps {
		rset, err := a.ReverseTopK(pi)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rset)
		// Cross-check against coverage counting.
		if got := a.Coverage(ps[pi]); got != len(rset) {
			t.Fatalf("product %d: reverse top-k %d vs coverage %d", pi, len(rset), got)
		}
	}
	// Each user contributes exactly k entries across all reverse top-k
	// sets (her top-k products), so the grand total is |U| * k.
	if want := 15 * 5; total != want {
		t.Errorf("sum of reverse top-k sizes = %d, want %d", total, want)
	}
	if _, err := a.ReverseTopK(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := a.ReverseTopK(999); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestMostInfluential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps, us := fixture(rng, 120, 20, 3, 5)
	a, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := a.MostInfluential(5)
	if len(top) != 5 {
		t.Fatalf("got %d results", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Coverage > top[i-1].Coverage {
			t.Error("results not sorted by coverage")
		}
	}
	// The most influential product's coverage must match a direct count.
	if got := a.Coverage(ps[top[0].ProductIndex]); got != top[0].Coverage {
		t.Errorf("coverage mismatch: %d vs %d", got, top[0].Coverage)
	}
	// No other product may beat the reported leader.
	for pi := range ps {
		if a.Coverage(ps[pi]) > top[0].Coverage {
			t.Fatalf("product %d beats the reported most influential", pi)
		}
	}
	if got := a.MostInfluential(0); got != nil {
		t.Error("n=0 should return nil")
	}
	if got := a.MostInfluential(10_000); len(got) != 120 {
		t.Errorf("n beyond |P| should clamp, got %d", len(got))
	}
}

// assertRegionsIdentical compares two public regions cell by cell with
// exact float equality — the byte-identity contract.
func assertRegionsIdentical(t *testing.T, label string, want, got *Region) {
	t.Helper()
	wc, gc := want.Cells(), got.Cells()
	if len(wc) != len(gc) {
		t.Fatalf("%s: %d cells, want %d", label, len(gc), len(wc))
	}
	for ci := range wc {
		a, b := wc[ci].Constraints(), gc[ci].Constraints()
		if len(a) != len(b) {
			t.Fatalf("%s: cell %d: %d constraints, want %d", label, ci, len(b), len(a))
		}
		for j := range a {
			if a[j].T != b[j].T {
				t.Fatalf("%s: cell %d constraint %d: thresholds differ", label, ci, j)
			}
			for k := range a[j].W {
				if a[j].W[k] != b[j].W[k] {
					t.Fatalf("%s: cell %d constraint %d coord %d differs", label, ci, j, k)
				}
			}
		}
	}
}

// TestMonitorHandleContractUnderFailures is the handle-contract property
// test: rejected arrivals must not consume a handle or leave partial
// state. It interleaves malformed arrivals (wrong dimensionality both
// ways, k=0, k>|P|) with good events against a mirror Monitor that
// receives only the good events; after every step the handles, the
// populations, and the regions must agree, and every rejected arrival
// must return -1 while leaving NextHandle unchanged.
func TestMonitorHandleContractUnderFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ps, us := fixture(rng, 150, 12, 3, 4)
	const m = 6
	mo, err := NewMonitor(ps, us, m)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := NewMonitor(ps, us, m)
	if err != nil {
		t.Fatal(err)
	}

	badArrivals := []User{
		{Weights: []float64{0.5, 0.5}, K: 2},             // too few weights
		{Weights: []float64{0.2, 0.2, 0.2, 0.4}, K: 2},   // too many
		{Weights: []float64{0.3, 0.3, 0.4}, K: 0},        // k too small
		{Weights: []float64{0.3, 0.3, 0.4}, K: 151},      // k beyond |P|
		{Weights: []float64{0.3, math.NaN(), 0.4}, K: 2}, // non-finite weight
		{Weights: []float64{0.8, -0.2, 0.4}, K: 2},       // negative weight
	}
	live := make([]int, 12)
	for i := range live {
		live[i] = i
	}
	for step := 0; step < 24; step++ {
		switch {
		case step%3 == 1: // malformed arrival
			before := mo.NextHandle()
			h, err := mo.UserArrived(badArrivals[(step/3)%len(badArrivals)])
			if err == nil {
				t.Fatalf("step %d: malformed arrival accepted", step)
			}
			if h != -1 {
				t.Fatalf("step %d: rejected arrival returned handle %d, want -1", step, h)
			}
			if mo.NextHandle() != before {
				t.Fatalf("step %d: rejected arrival consumed a handle (%d -> %d)",
					step, before, mo.NextHandle())
			}
		case step%3 == 2 && len(live) > m+1: // departure
			pick := live[rng.Intn(len(live))]
			for i, h := range live {
				if h == pick {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			if err := mo.UserDeparted(pick); err != nil {
				t.Fatalf("step %d: depart %d: %v", step, pick, err)
			}
			if err := mirror.UserDeparted(pick); err != nil {
				t.Fatalf("step %d: mirror depart %d: %v", step, pick, err)
			}
		default: // good arrival
			_, newcomer := fixture(rng, 1, 1, 3, 3)
			want := mo.NextHandle()
			if want != mirror.NextHandle() {
				t.Fatalf("step %d: monitors disagree on next handle: %d vs %d",
					step, want, mirror.NextHandle())
			}
			h, err := mo.UserArrived(newcomer[0])
			if err != nil {
				t.Fatalf("step %d: arrival: %v", step, err)
			}
			hm, err := mirror.UserArrived(newcomer[0])
			if err != nil {
				t.Fatalf("step %d: mirror arrival: %v", step, err)
			}
			if h != want || hm != want {
				t.Fatalf("step %d: handles %d/%d, predicted %d", step, h, hm, want)
			}
			live = append(live, h)
		}
		if mo.NumUsers() != mirror.NumUsers() {
			t.Fatalf("step %d: populations diverged: %d vs %d",
				step, mo.NumUsers(), mirror.NumUsers())
		}
	}
	assertRegionsIdentical(t, "after failure churn", mirror.Region(), mo.Region())
}

// TestMonitorApplyEvents checks the public batch path: same handles and a
// byte-identical region vs one-at-a-time application, batch atomicity on a
// bad event, and departures of same-batch arrivals.
func TestMonitorApplyEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ps, us := fixture(rng, 150, 12, 3, 4)
	const m = 6
	batch, err := NewMonitor(ps, us, m)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewMonitor(ps, us, m)
	if err != nil {
		t.Fatal(err)
	}
	_, newbies := fixture(rng, 1, 3, 3, 4)
	events := []MonitorEvent{
		Arrival(newbies[0]),
		Departure(3),
		Arrival(newbies[1]),
		Departure(12), // the first arrival in this very batch
		Arrival(newbies[2]),
		Departure(7),
	}
	handles, err := batch.ApplyEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	wantHandles := []int{12, -1, 13, -1, 14, -1}
	for i := range wantHandles {
		if handles[i] != wantHandles[i] {
			t.Fatalf("handles = %v, want %v", handles, wantHandles)
		}
	}
	for _, ev := range events {
		if ev.Arrive {
			if _, err := seq.UserArrived(ev.User); err != nil {
				t.Fatal(err)
			}
		} else if err := seq.UserDeparted(ev.Handle); err != nil {
			t.Fatal(err)
		}
	}
	assertRegionsIdentical(t, "batch vs sequential", seq.Region(), batch.Region())
	if batch.NumUsers() != seq.NumUsers() {
		t.Fatalf("NumUsers %d vs %d", batch.NumUsers(), seq.NumUsers())
	}

	// Atomicity: a bad event anywhere rejects the whole batch untouched.
	before := batch.Region()
	users, next := batch.NumUsers(), batch.NextHandle()
	if _, err := batch.ApplyEvents([]MonitorEvent{
		Arrival(newbies[0]),
		Departure(999),
	}); err == nil {
		t.Fatal("batch with bad departure accepted")
	}
	if batch.NumUsers() != users || batch.NextHandle() != next {
		t.Fatalf("failed batch mutated state: users %d->%d next %d->%d",
			users, batch.NumUsers(), next, batch.NextHandle())
	}
	assertRegionsIdentical(t, "after rejected batch", before, batch.Region())
	if h, err := batch.ApplyEvents(nil); err != nil || h != nil {
		t.Fatalf("empty batch: handles %v err %v", h, err)
	}
}

// TestMonitorApplyEventsEmptyNoOp pins the empty-batch contract the
// daemon's drain loop relies on (an empty drain must not bump the served
// epoch): nil and zero-length batches return (nil, nil) and leave the
// Monitor completely untouched — population, handle counter, region
// bytes, and the maintenance work counters all unchanged.
func TestMonitorApplyEventsEmptyNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ps, us := fixture(rng, 120, 10, 3, 4)
	mo, err := NewMonitor(ps, us, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Churn once so the routing counters are nonzero and a spurious sweep
	// afterwards would be visible.
	_, newbies := fixture(rng, 1, 1, 3, 4)
	if _, err := mo.UserArrived(newbies[0]); err != nil {
		t.Fatal(err)
	}
	before := mo.Region()
	users, next, stats := mo.NumUsers(), mo.NextHandle(), before.Stats()
	for _, events := range [][]MonitorEvent{nil, {}} {
		handles, err := mo.ApplyEvents(events)
		if handles != nil || err != nil {
			t.Fatalf("empty batch: handles %v err %v, want nil nil", handles, err)
		}
	}
	if mo.NumUsers() != users || mo.NextHandle() != next {
		t.Fatalf("empty batch moved population: users %d->%d next %d->%d",
			users, mo.NumUsers(), next, mo.NextHandle())
	}
	after := mo.Region()
	assertRegionsIdentical(t, "after empty batches", before, after)
	if got := after.Stats(); got != stats {
		t.Fatalf("empty batch did maintenance work:\n before %+v\n after  %+v", stats, got)
	}
}

// TestMonitorSnapshot checks that snapshots answer from capture-time
// state, stay coherent while the Monitor churns, and agree with the
// Monitor's own queries at capture time.
func TestMonitorSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ps, us := fixture(rng, 120, 10, 3, 4)
	const m = 5
	mo, err := NewMonitor(ps, us, m)
	if err != nil {
		t.Fatal(err)
	}
	snap := mo.Snapshot()
	if snap.NumUsers() != mo.NumUsers() {
		t.Fatalf("snapshot NumUsers %d, monitor %d", snap.NumUsers(), mo.NumUsers())
	}
	assertRegionsIdentical(t, "snapshot vs monitor", mo.Region(), snap.Region())
	probes := make([][]float64, 40)
	wantCov := make([]int, len(probes))
	for i := range probes {
		probes[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		wantCov[i] = mo.Coverage(probes[i])
		if snap.Coverage(probes[i]) != wantCov[i] {
			t.Fatalf("snapshot coverage disagrees at capture time")
		}
	}
	wantInfl := snap.MostInfluential(5)
	wantGap := snap.MinBoundaryGap(probes[0])

	// Churn the monitor; the snapshot must not move.
	for i := 0; i < 5; i++ {
		_, newbies := fixture(rng, 1, 1, 3, 3)
		if _, err := mo.UserArrived(newbies[0]); err != nil {
			t.Fatal(err)
		}
		if err := mo.UserDeparted(i); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range probes {
		if got := snap.Coverage(p); got != wantCov[i] {
			t.Fatalf("snapshot coverage drifted at probe %d: %d vs %d", i, got, wantCov[i])
		}
	}
	gotInfl := snap.MostInfluential(5)
	for i := range wantInfl {
		if gotInfl[i] != wantInfl[i] {
			t.Fatalf("snapshot influence drifted: %v vs %v", gotInfl, wantInfl)
		}
	}
	if got := snap.MinBoundaryGap(probes[0]); got != wantGap {
		t.Fatalf("snapshot boundary gap drifted: %v vs %v", got, wantGap)
	}
}
