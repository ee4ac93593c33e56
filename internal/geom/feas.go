package geom

import (
	"sync"

	"mir/internal/lp"
)

// feaserScratch bundles the LP state a goroutine needs to run geometric
// predicates without allocating: a dual-simplex feasibility solver plus the
// row-pointer buffers that present a polytope's constraints to it, and a
// two-phase simplex Workspace with flat row-major constraint scratch for
// the optimization entry points (Maximize, MBB, hull membership) and the
// robust fallback.
type feaserScratch struct {
	f    lp.Feaser
	ws   [][]float64
	ts   []float64
	keys []lp.Key  // row identity keys, parallel to ws (warm paths only)
	neg  []float64 // scratch for negated coefficient rows

	w     lp.Workspace // two-phase solves: optimization + robust fallback
	aFlat []float64    // row-major constraint scratch for the Workspace
	bBuf  []float64
	cBuf  []float64 // objective scratch

	// basis is the within-call warm-start chain buffer: exported after one
	// solve, re-entered by the next solve of the same call. It never seeds
	// a solve across entry points — the scratch is pooled and a later call
	// may present a different polytope, so cross-call seeds must come from
	// the caller (cell-attached snapshots), never from pooled state.
	basis lp.Basis
}

var feaserPool = sync.Pool{New: func() any { return new(feaserScratch) }}

// getScratch acquires a pooled scratch; every release goes back
// through feaserPool.Put.
func getScratch() *feaserScratch { return feaserPool.Get().(*feaserScratch) }

// growFloat resizes *buf to length n, reusing capacity.
func growFloat(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// load fills the scratch buffers with the polytope's constraints plus any
// extra halfspaces.
func (s *feaserScratch) load(p *Polytope, extra ...Halfspace) {
	s.ws = s.ws[:0]
	s.ts = s.ts[:0]
	for _, h := range p.Hs {
		s.ws = append(s.ws, h.W)
		s.ts = append(s.ts, h.T)
	}
	for _, h := range extra {
		s.ws = append(s.ws, h.W)
		s.ts = append(s.ts, h.T)
	}
}

// loadKeyed is load plus row identity keys: every polytope row is keyed by
// its coefficient vector (stable and shared down the cell tree by the
// package's immutability convention), so a basis snapshot taken on a
// related system can be re-entered. Rows appended by the caller afterwards
// must push a matching key (usually nil for transient scratch rows).
func (s *feaserScratch) loadKeyed(p *Polytope) {
	s.ws = s.ws[:0]
	s.ts = s.ts[:0]
	s.keys = s.keys[:0]
	for _, h := range p.Hs {
		s.ws = append(s.ws, h.W)
		s.ts = append(s.ts, h.T)
		s.keys = append(s.keys, lp.KeyOf(h.W))
	}
}

// solveSeeded is solve with warm-start: the keyed rows are solved from the
// given basis snapshot (nil = cold), with the same robust two-phase
// fallback. Verdicts are independent of the seed; only the pivot path
// changes.
func (s *feaserScratch) solveSeeded(dim int, seed *lp.Basis) bool {
	feas, ok := s.f.FeasibleGEKeyed(dim, s.ws, s.ts, s.keys, seed)
	if ok {
		return feas
	}
	return s.solveFallback(dim)
}

// solve runs the dual-simplex feasibility test on the currently loaded
// rows, falling back to the robust two-phase solver when the pivot budget
// is exceeded. The loaded rows may extend beyond a polytope's own
// constraints (extra rows appended by the caller); the fallback rebuilds
// the program from the loaded rows directly, into the scratch's reusable
// flat buffers.
func (s *feaserScratch) solve(dim int) bool {
	feas, ok := s.f.FeasibleGE(dim, s.ws, s.ts)
	if ok {
		return feas
	}
	return s.solveFallback(dim)
}

func (s *feaserScratch) solveFallback(dim int) bool {
	// Robust fallback (never hit in practice): rebuild A x <= b from the
	// loaded rows in the flat scratch — W·x >= T becomes -W·x <= -T.
	m := len(s.ws)
	A := growFloat(&s.aFlat, m*dim)
	b := growFloat(&s.bBuf, m)
	for i := range s.ws {
		row := A[i*dim : (i+1)*dim]
		for j := 0; j < dim; j++ {
			row[j] = -s.ws[i][j]
		}
		b[i] = -s.ts[i]
	}
	got, _ := s.w.FeasibleFlat(dim, A, b)
	return got
}

// feasible reports whether the polytope (intersected with the orthant)
// has a point.
func (s *feaserScratch) feasible(p *Polytope, extra ...Halfspace) bool {
	s.load(p, extra...)
	return s.solve(p.Dim)
}

// loadLP fills the flat two-phase scratch with the polytope's constraints
// in A x <= b form (W·x >= T becomes -W·x <= -T) and returns the A and b
// views.
func (s *feaserScratch) loadLP(p *Polytope) (A, b []float64) {
	m := len(p.Hs)
	A = growFloat(&s.aFlat, m*p.Dim)
	b = growFloat(&s.bBuf, m)
	for i, h := range p.Hs {
		row := A[i*p.Dim : (i+1)*p.Dim]
		for j := 0; j < p.Dim; j++ {
			row[j] = -h.W[j]
		}
		b[i] = -h.T
	}
	return A, b
}
