package geom

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPooledScratchConcurrency hammers every pooled-scratch entry point —
// Classify, MBB, FeasiblePoint, Maximize, InConvexHull, ExtremePoints,
// ReduceCell — from many goroutines at once. All of them draw
// workspaces from the shared sync.Pools (feaserPool, the LP workspace
// pool, the 2D hull scratch pool) and the axis-normal unitCache, so a
// scratch buffer leaking between borrowers shows up here as a -race
// report or as a deviation from the sequentially computed baseline.
func TestPooledScratchConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type fixture struct {
		p   *Polytope
		h   Halfspace
		obj Vector
		pts []Vector
		q   Vector
		lo  Vector
		hi  Vector
	}
	var fixtures []fixture
	for trial := 0; trial < 24; trial++ {
		d := 2 + rng.Intn(3)
		p := NewBox(d, 0, 1)
		for i := 0; i < 4; i++ {
			w := make(Vector, d)
			for j := range w {
				w[j] = rng.Float64() - 0.5
			}
			p.Append(Halfspace{W: w, T: 0.3*rng.Float64() - 0.15})
		}
		f := fixture{p: p}
		f.h.W = make(Vector, d)
		for j := range f.h.W {
			f.h.W[j] = rng.Float64()
		}
		f.h.T = 0.2 + 0.6*rng.Float64()
		f.obj = make(Vector, d)
		f.obj[rng.Intn(d)] = 1
		for i := 0; i < 12; i++ {
			v := make(Vector, d)
			for j := range v {
				v[j] = rng.Float64()
			}
			f.pts = append(f.pts, v)
		}
		f.q = make(Vector, d)
		for j := range f.q {
			f.q[j] = rng.Float64()
		}
		f.lo = make(Vector, d)
		f.hi = make(Vector, d)
		for j := range f.lo {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			f.lo[j], f.hi[j] = a, b+0.05
		}
		fixtures = append(fixtures, f)
	}

	// Sequential baseline: every operation's answer must be reproduced
	// exactly by every goroutine.
	type answer struct {
		rel      Relation
		mbbLo    Vector
		mbbHi    Vector
		mbbOK    bool
		feasOK   bool
		maxVal   float64
		maxOK    bool
		inHull   bool
		hull     []int
		redRows  int
		redStats ReduceStats
	}
	run := func(f fixture) answer {
		var a answer
		a.rel = f.p.Classify(f.h)
		a.mbbLo, a.mbbHi, a.mbbOK = f.p.MBB()
		_, a.feasOK = f.p.FeasiblePoint()
		a.maxVal, _, a.maxOK = f.p.Maximize(f.obj)
		a.inHull = InConvexHull(f.q, f.pts)
		a.hull = ExtremePoints(f.pts)
		red, st := ReduceCell(len(f.lo), f.p.Hs, f.lo, f.hi, nil)
		a.redRows, a.redStats = len(red), st
		return a
	}
	base := make([]answer, len(fixtures))
	for i, f := range fixtures {
		base[i] = run(f)
	}

	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the starting fixture so borrowing patterns differ
				// across goroutines.
				for off := 0; off < len(fixtures); off++ {
					i := (g + off) % len(fixtures)
					got := run(fixtures[i])
					want := base[i]
					if got.rel != want.rel || got.mbbOK != want.mbbOK ||
						got.feasOK != want.feasOK || got.maxOK != want.maxOK ||
						got.maxVal != want.maxVal || got.inHull != want.inHull ||
						got.redRows != want.redRows || got.redStats != want.redStats ||
						len(got.hull) != len(want.hull) {
						errs <- "concurrent result diverged from sequential baseline"
						return
					}
					for j := range got.hull {
						if got.hull[j] != want.hull[j] {
							errs <- "hull vertex set diverged under concurrency"
							return
						}
					}
					if want.mbbOK {
						for j := range got.mbbLo {
							if got.mbbLo[j] != want.mbbLo[j] || got.mbbHi[j] != want.mbbHi[j] {
								errs <- "MBB diverged under concurrency"
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
