// Package lp implements a dense two-phase simplex solver for small linear
// programs in standard inequality form:
//
//	maximize   c·x
//	subject to A x <= b,  x >= 0.
//
// The solver targets the geometric workloads of this repository: programs
// with a handful of variables (the product-space dimensionality, or the
// cardinality of a convex-combination test) and up to a few hundred
// constraints. It favours robustness over asymptotic speed: Bland's rule is
// used whenever degeneracy is detected, which guarantees termination.
//
// Equality constraints are expressed by the caller as a pair of opposing
// inequalities. Free variables are not supported; every geometric quantity
// in this repository (product coordinates, convex-combination coefficients)
// is naturally non-negative.
//
// # Memory model
//
// The solver state (tableau, reduced-cost row, basis) lives in a Workspace:
// one flat row-major float64 backing array plus two small side slices, all
// reused across solves. The hot paths of the arrangement algorithms run
// millions of solves; with a Workspace (typically drawn from a sync.Pool by
// the caller, see internal/geom) the steady state allocates nothing. The
// package-level Maximize/Minimize/Feasible wrappers draw from an internal
// pool and copy the solution out, so they remain safe for callers that
// retain Result.X indefinitely.
package lp

import (
	"fmt"
	"math"
	"sync"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution with x >= 0.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Result holds the outcome of a linear program.
type Result struct {
	Status Status
	// X is the optimal point (length = number of variables) when Status
	// is Optimal; nil otherwise. Results returned by Workspace methods
	// alias the workspace's internal buffer and are valid only until the
	// next solve on that workspace; the package-level wrappers return a
	// fresh copy.
	X []float64
	// Obj is the optimal objective value when Status is Optimal.
	Obj float64
}

// Eps is the pivot / feasibility tolerance used throughout the solver (both
// the two-phase primal simplex here and the dual-simplex Feaser). It is the
// authoritative constant for "is this number zero" questions inside an LP:
// pivot admissibility, reduced-cost optimality, ratio-test ties. Geometric
// decisions built on top of LP answers use the much coarser
// geom.ClassifyTol (1e-7); the two-orders-of-magnitude gap guarantees that
// solver noise at the Eps scale can never flip a cover/exclude/cut
// classification. See internal/geom/polytope.go and the cross-check in
// internal/geom/tolerance_test.go.
const Eps = 1e-9

// maxIter bounds the total number of pivots per phase as a safety net; the
// bound is generous for the problem sizes in this repository.
const maxIter = 10000

// degenerateRunFactor scales the anti-cycling threshold: after
// degenerateRunFactor*(m+n) consecutive degenerate pivots chooseEntering
// switches from Dantzig's rule to Bland's rule, whose termination
// guarantee breaks cycles (see TestBealeCycling).
const degenerateRunFactor = 2

// blandSwitchAfter returns the degenerate-pivot run length after which a
// solve with m constraints and n variables falls back to Bland's rule.
func blandSwitchAfter(m, n int) int {
	return degenerateRunFactor * (m + n)
}

// Workspace holds the reusable solver state: a dense simplex tableau laid
// out in one flat row-major backing array, the reduced-cost row, and the
// basis bookkeeping. The zero value is ready to use; buffers grow to the
// high-water mark of the programs solved and are then reused without
// further allocation.
//
// A Workspace is not safe for concurrent use.
type Workspace struct {
	// tab is the m x nCols tableau, row-major. Columns 0..n-1 are the
	// structural variables, n..n+m-1 the slacks, then the artificials, and
	// the last column is the right-hand side.
	tab   []float64
	z     []float64 // reduced-cost row, length nCols
	x     []float64 // solution buffer, length n
	zeroC []float64 // all-zero objective for feasibility solves
	basis []int     // basis[i] = column basic in row i

	m, n    int // constraints, structural variables
	nSlack  int
	nArt    int
	nCols   int
	rhsCol  int
	obj     []float64 // caller's objective (aliased, read-only)
	degIter int       // consecutive degenerate pivots; switches to Bland's rule

	// Counters accumulates pivot and solve statistics across solves;
	// callers take deltas around call sites they want to attribute.
	Counters Counters
}

// pool backs the package-level convenience wrappers.
var pool = sync.Pool{New: func() any { return new(Workspace) }}

// Maximize solves max c·x subject to A x <= b, x >= 0.
//
// A is given row-major; every row must have len(c) entries. b entries may be
// negative (phase 1 handles them). The returned Result.X has len(c) entries
// and is owned by the caller.
func Maximize(c []float64, A [][]float64, b []float64) Result {
	w := pool.Get().(*Workspace)
	r := w.Maximize(c, A, b)
	r = r.detach()
	pool.Put(w)
	return r
}

// Minimize solves min c·x subject to A x <= b, x >= 0 by negating the
// objective. The returned Result.X is owned by the caller.
func Minimize(c []float64, A [][]float64, b []float64) Result {
	w := pool.Get().(*Workspace)
	neg := make([]float64, len(c))
	for i, v := range c {
		neg[i] = -v
	}
	r := w.Maximize(neg, A, b)
	if r.Status == Optimal {
		r.Obj = -r.Obj
	}
	r = r.detach()
	pool.Put(w)
	return r
}

// Feasible reports whether {x : A x <= b, x >= 0} is non-empty, and returns
// a caller-owned witness point when it is.
func Feasible(A [][]float64, b []float64) (bool, []float64) {
	n := 0
	if len(A) > 0 {
		n = len(A[0])
	}
	w := pool.Get().(*Workspace)
	r := w.maximizeZero(n, func(i int) []float64 { return A[i] }, b)
	r = r.detach()
	pool.Put(w)
	if r.Status != Optimal {
		return false, nil
	}
	return true, r.X
}

// detach copies X out of the workspace buffer so the Result survives the
// workspace's return to the pool.
func (r Result) detach() Result {
	if r.X != nil {
		r.X = append([]float64(nil), r.X...)
	}
	return r
}

// Maximize solves max c·x subject to A x <= b, x >= 0 using the
// workspace's buffers. Result.X aliases the workspace and is valid only
// until the next solve.
func (w *Workspace) Maximize(c []float64, A [][]float64, b []float64) Result {
	n := len(c)
	for i, row := range A {
		if len(row) != n {
			panic(fmt.Sprintf("lp: row %d has %d entries, want %d", i, len(row), n))
		}
	}
	if len(b) != len(A) {
		panic(fmt.Sprintf("lp: len(b)=%d, want %d", len(b), len(A)))
	}
	return w.solve(c, func(i int) []float64 { return A[i] }, b)
}

// MaximizeFlat is Maximize with the constraint matrix given as one
// row-major flat slice of len(b) rows x len(c) columns. Result.X aliases
// the workspace and is valid only until the next solve.
func (w *Workspace) MaximizeFlat(c []float64, aFlat []float64, b []float64) Result {
	n := len(c)
	if len(aFlat) != n*len(b) {
		panic(fmt.Sprintf("lp: len(aFlat)=%d, want %d rows x %d cols", len(aFlat), len(b), n))
	}
	return w.solve(c, func(i int) []float64 { return aFlat[i*n : (i+1)*n] }, b)
}

// FeasibleFlat reports whether {x : A x <= b, x >= 0} is non-empty for a
// flat row-major A of len(b) rows x n columns. The witness aliases the
// workspace and is valid only until the next solve.
func (w *Workspace) FeasibleFlat(n int, aFlat []float64, b []float64) (bool, []float64) {
	if len(aFlat) != n*len(b) {
		panic(fmt.Sprintf("lp: len(aFlat)=%d, want %d rows x %d cols", len(aFlat), len(b), n))
	}
	r := w.maximizeZero(n, func(i int) []float64 { return aFlat[i*n : (i+1)*n] }, b)
	if r.Status != Optimal {
		return false, nil
	}
	return true, r.X
}

// maximizeZero runs a feasibility solve (zero objective) without
// materializing the zero vector: the phase-2 reduced-cost row starts
// all-zero, so phase 2 terminates immediately once phase 1 succeeds.
func (w *Workspace) maximizeZero(n int, row func(int) []float64, b []float64) Result {
	c := w.grow(&w.zeroC, n)
	for j := range c {
		c[j] = 0
	}
	return w.solve(c, row, b)
}

// grow resizes *buf to length want, reusing capacity.
func (w *Workspace) grow(buf *[]float64, want int) []float64 {
	if cap(*buf) < want {
		*buf = make([]float64, want)
	}
	*buf = (*buf)[:want]
	return *buf
}

// solve runs the two-phase simplex over constraints presented by the row
// accessor. It fills the workspace tableau, runs phase 1 when any
// right-hand side is negative, then optimizes c·x.
func (w *Workspace) solve(c []float64, row func(int) []float64, b []float64) Result {
	w.Counters.ColdSolves++
	w.load(c, row, b)
	if w.nArt > 0 {
		if !w.phase1() {
			return Result{Status: Infeasible}
		}
	}
	return w.phase2()
}

// load fills the tableau for the given program. One artificial variable is
// introduced per row whose (sign-normalized) RHS forces an infeasible slack
// start, exactly as the original slice-of-slices implementation did.
func (w *Workspace) load(c []float64, row func(int) []float64, b []float64) {
	m, n := len(b), len(c)
	w.m, w.n = m, n
	w.nSlack = m
	w.nArt = 0
	w.degIter = 0
	w.obj = c
	for i := 0; i < m; i++ {
		if b[i] < -Eps {
			w.nArt++
		}
	}
	w.nCols = n + w.nSlack + w.nArt + 1
	w.rhsCol = w.nCols - 1

	need := m * w.nCols
	if cap(w.tab) < need {
		w.tab = make([]float64, need)
	}
	w.tab = w.tab[:need]
	if cap(w.basis) < m {
		w.basis = make([]int, m)
	}
	w.basis = w.basis[:m]
	w.grow(&w.z, w.nCols)

	art := 0
	for i := 0; i < m; i++ {
		r := w.tab[i*w.nCols : (i+1)*w.nCols]
		for j := range r {
			r[j] = 0
		}
		src := row(i)
		sign := 1.0
		if b[i] < -Eps {
			sign = -1.0
		}
		for j := 0; j < n; j++ {
			r[j] = sign * src[j]
		}
		r[n+i] = sign // slack (surplus when sign = -1)
		r[w.rhsCol] = sign * b[i]
		if sign < 0 {
			col := n + w.nSlack + art
			r[col] = 1
			w.basis[i] = col
			art++
		} else {
			w.basis[i] = n + i
		}
	}
}

// phase1 drives the artificial variables to zero. It returns false when the
// original system is infeasible.
func (w *Workspace) phase1() bool {
	// Phase-1 objective: minimize the sum of artificials, i.e. maximize
	// their negated sum. With cost -1 on each artificial, the reduced-cost
	// row is z = cB·B⁻¹A - c, which for the initial basis equals minus the
	// sum of the rows holding artificial basics (and zero on the artificial
	// columns themselves, which iterate never enters anyway).
	z := w.z
	for j := range z {
		z[j] = 0
	}
	for i := 0; i < w.m; i++ {
		if w.basis[i] >= w.n+w.nSlack {
			r := w.tab[i*w.nCols : (i+1)*w.nCols]
			for j, v := range r {
				z[j] -= v
			}
		}
	}
	if !w.iterate(z, w.n+w.nSlack) {
		// Phase 1 is bounded, so a false return signals numerical trouble;
		// the safe answer is infeasible.
		return false
	}
	// z[rhsCol] tracks the phase-1 objective (minus the artificial sum);
	// the system is feasible iff it reached (numerically) zero.
	if z[w.rhsCol] < -1e-7 {
		return false
	}
	// Pivot any artificial variables that remain basic (at zero level) out of
	// the basis so that phase 2 never re-enters them.
	for i := 0; i < w.m; i++ {
		if w.basis[i] < w.n+w.nSlack {
			continue
		}
		r := w.tab[i*w.nCols : (i+1)*w.nCols]
		pivoted := false
		for j := 0; j < w.n+w.nSlack; j++ {
			if math.Abs(r[j]) > Eps {
				w.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// The row is all-zero over real variables: redundant constraint.
			// Leave the artificial basic at level zero; mark the row inert by
			// zeroing it (it can never be chosen as a ratio-test row with a
			// positive pivot element).
			for j := range r {
				r[j] = 0
			}
		}
	}
	return true
}

// phase2 optimizes the true objective from the current feasible basis.
func (w *Workspace) phase2() Result {
	// Build the reduced-cost row for max c·x: z[j] = cB·B^-1 A_j - c_j, kept
	// implicitly by starting from -c and adding multiples of basic rows.
	z := w.z
	for j := range z {
		z[j] = 0
	}
	for j := 0; j < w.n; j++ {
		z[j] = -w.obj[j]
	}
	for i := 0; i < w.m; i++ {
		bj := w.basis[i]
		if bj < w.n && w.obj[bj] != 0 {
			coef := w.obj[bj]
			r := w.tab[i*w.nCols : (i+1)*w.nCols]
			for j, v := range r {
				z[j] += coef * v
			}
		}
	}
	if !w.iterate(z, w.n+w.nSlack) {
		return Result{Status: Unbounded}
	}
	x := w.grow(&w.x, w.n)
	for j := range x {
		x[j] = 0
	}
	for i := 0; i < w.m; i++ {
		if w.basis[i] < w.n {
			x[w.basis[i]] = w.tab[i*w.nCols+w.rhsCol]
		}
	}
	obj := 0.0
	for j := 0; j < w.n; j++ {
		if x[j] < 0 && x[j] > -Eps {
			x[j] = 0
		}
		obj += w.obj[j] * x[j]
	}
	return Result{Status: Optimal, X: x, Obj: obj}
}

// iterate runs simplex pivots on the given reduced-cost row until optimality
// (returns true) or unboundedness (returns false). Columns >= limit (the
// artificials during phase 2) are never entered.
func (w *Workspace) iterate(z []float64, limit int) bool {
	for iter := 0; iter < maxIter; iter++ {
		col := w.chooseEntering(z, limit)
		if col < 0 {
			return true // optimal
		}
		row := w.ratioTest(col)
		if row < 0 {
			return false // unbounded
		}
		if w.tab[row*w.nCols+w.rhsCol] < Eps {
			w.degIter++
		} else {
			w.degIter = 0
		}
		w.pivot(row, col)
		// Update the reduced-cost row with the same elimination.
		eliminateAux(z, w.tab[row*w.nCols:(row+1)*w.nCols], col)
	}
	// Hitting the iteration cap on these tiny programs indicates numerical
	// trouble; report the safest answer for each phase. Phase 1 treats it as
	// infeasible, phase 2 as unbounded — both surface as errors upstream.
	return false
}

// chooseEntering picks the entering column: Dantzig's rule normally, Bland's
// rule after a run of degenerate pivots (anti-cycling).
func (w *Workspace) chooseEntering(z []float64, limit int) int {
	if w.degIter > blandSwitchAfter(w.m, w.n) {
		for j := 0; j < limit; j++ {
			if z[j] < -Eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -Eps
	for j := 0; j < limit; j++ {
		if z[j] < bestVal {
			bestVal = z[j]
			best = j
		}
	}
	return best
}

// ratioTest picks the leaving row for the entering column, breaking ties by
// smallest basis index (part of Bland's anti-cycling guarantee).
func (w *Workspace) ratioTest(col int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for i := 0; i < w.m; i++ {
		a := w.tab[i*w.nCols+col]
		if a <= Eps {
			continue
		}
		ratio := w.tab[i*w.nCols+w.rhsCol] / a
		if ratio < bestRatio-Eps ||
			(ratio < bestRatio+Eps && bestRow >= 0 && w.basis[i] < w.basis[bestRow]) {
			bestRatio = ratio
			bestRow = i
		}
	}
	return bestRow
}

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the
// basis, via the shared elimination kernel (see elim.go).
func (w *Workspace) pivot(row, col int) {
	w.Counters.Pivots++
	eliminate(w.tab, w.nCols, w.m, row, col)
	w.basis[row] = col
}
