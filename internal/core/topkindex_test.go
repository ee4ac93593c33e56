package core

import (
	"math"
	"math/rand"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// TestInstanceKthIndexOnOffByteIdentical pins the engine-level contract
// of the layered index: Instance.Kth (identity and score bits) equals the
// skyband scan reference topk.AllTopKWorkers, for workers 1, 2, 4, and 8.
func TestInstanceKthIndexOnOffByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range []int{2, 3, 4} {
		ps := data.Independent(rng, 800, d)
		us := data.WithK(data.ClusteredUsers(rng, 90, d, 3, 0.08), 1)
		for i := range us {
			us[i].K = 1 + (i*7)%19
		}
		ref := topk.AllTopKWorkers(ps, us, 1)
		for _, workers := range []int{1, 2, 4, 8} {
			inst, err := NewInstanceOpts(ps, us, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for ui := range us {
				g, w := inst.Kth[ui], ref[ui]
				if g.Index != w.Index || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("d=%d workers=%d user %d: %+v vs scan reference %+v",
						d, workers, ui, g, w)
				}
			}
		}
	}
}

// TestInstancePrepStatsDeterministic pins that the preprocessing search
// counters are the same for every worker count (order-free merges).
func TestInstancePrepStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ps := data.Independent(rng, 1500, 3)
	us := data.WithK(data.UniformUsers(rng, 120, 3), 8)
	var want topk.SearchStats
	for i, workers := range []int{1, 2, 4, 8} {
		inst, err := NewInstanceOpts(ps, us, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if inst.Prep.ScannedProducts == 0 {
			t.Fatal("indexed preprocessing scanned nothing")
		}
		if i == 0 {
			want = inst.Prep
		} else if inst.Prep != want {
			t.Fatalf("workers=%d: prep stats %+v vs sequential %+v", workers, inst.Prep, want)
		}
	}
}

// TestMaintainerAddUserIndexOnOff runs an arrival sequence through a
// Maintainer: every appended threshold must be byte-identical to the full
// product scan topk.KthScore — the indexed UserArrived path is a pure perf
// optimization — and the maintained region must match the coverage
// oracle those thresholds induce.
func TestMaintainerAddUserIndexOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ps := data.Independent(rng, 300, 3)
	us := data.WithK(data.ClusteredUsers(rng, 12, 3, 3, 0.08), 5)
	m := 6

	inst, err := NewInstanceOpts(ps, us, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMaintainer(inst, m, Options{})
	if err != nil {
		t.Fatal(err)
	}

	arrivals := data.WithK(data.UniformUsers(rng, 10, 3), 1)
	for i := range arrivals {
		arrivals[i].K = 1 + (i*3)%9
	}
	for i, u := range arrivals {
		h, err := mt.AddUser(u)
		if err != nil {
			t.Fatal(err)
		}
		g, w := mt.run.inst.Kth[h], topk.KthScore(ps, u.W, u.K)
		if g.Index != w.Index || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("arrival %d: indexed threshold %+v vs scan %+v", i, g, w)
		}
	}
	if mt.run.st.ScannedProducts == 0 {
		t.Error("indexed arrivals recorded no scanned products")
	}
	reg := mt.Region()
	for probe := 0; probe < 2000; probe++ {
		p := make(geom.Vector, 3)
		for j := range p {
			p[j] = rng.Float64()
		}
		if mt.MinBoundaryGap(p) < 1e-6 {
			continue
		}
		if (mt.CountCovering(p) >= m) != reg.Contains(p) {
			t.Fatalf("region disagrees with the coverage oracle at %v", p)
		}
	}
}
