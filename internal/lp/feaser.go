package lp

// Feaser answers feasibility queries for systems
//
//	{ x >= 0 : W_j·x >= T_j  for j = 1..m }
//
// by running the simplex method on the dual program, which has only n
// rows (n = dimension of x, small for the geometric workloads here) and
// needs no phase 1: by Farkas' lemma the system is infeasible iff there
// is y >= 0 with sum_j y_j W_j <= 0 (componentwise) and sum_j y_j T_j > 0,
// i.e. iff the dual max sum T_j y_j s.t. sum y_j W_j[i] <= 0 is unbounded;
// y = 0 is always dual-feasible, so the search starts immediately.
//
// Every right-hand side of the dual is zero, so the tableau carries no
// RHS column and every pivot is degenerate; Bland's rule guarantees
// termination. Every solve starts from the slack basis. A Feaser reuses
// its buffers across calls — the hot path of the arrangement algorithms
// runs millions of these queries.
//
// A Feaser is not safe for concurrent use.
type Feaser struct {
	tab   []float64 // n rows x width cols, row-major
	z     []float64 // reduced-cost row, length width
	basis []int     // basis[i] = column basic in row i

	// Counters accumulates pivot and solve statistics across solves;
	// callers take deltas around call sites they want to attribute.
	Counters Counters

	n, m, width int
}

// Counters aggregates a solver's work across solves. Pivots is the
// universal effort metric (one Gauss-Jordan elimination of the tableau);
// ColdSolves counts the solves, every one of which starts from the slack
// basis. The counters are plain fields on each solver — solvers are
// single-goroutine objects, and callers fold deltas into their own
// per-worker accumulators, which merge by summation (order-free) after a
// parallel phase.
type Counters struct {
	Pivots     int64
	ColdSolves int64
}

// Add folds o into c (summation; commutative and associative, so
// per-worker counters merge deterministically in any order).
func (c *Counters) Add(o Counters) {
	c.Pivots += o.Pivots
	c.ColdSolves += o.ColdSolves
}

// Sub returns c - o; used to take before/after deltas around a solve.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Pivots:     c.Pivots - o.Pivots,
		ColdSolves: c.ColdSolves - o.ColdSolves,
	}
}

// feaserMaxIter caps pivots; on overflow the caller should fall back to
// the two-phase solver (never observed in practice, pure safety).
const feaserMaxIter = 5000

// FeasibleGE reports whether {x >= 0 : ws[j]·x >= ts[j] for all j} has a
// solution, and whether the simplex run stayed within its iteration
// budget (ok=false means "answer unreliable, use the robust path"). An
// empty system is feasible and costs no solve.
func (f *Feaser) FeasibleGE(n int, ws [][]float64, ts []float64) (feasible, ok bool) {
	m := len(ws)
	if m == 0 {
		return true, true
	}
	f.n, f.m, f.width = n, m, m+n
	f.Counters.ColdSolves++
	f.load(ws, ts)
	return f.run()
}

// load fills the tableau from the slack basis.
func (f *Feaser) load(ws [][]float64, ts []float64) {
	n, m, width := f.n, f.m, f.width
	if cap(f.tab) < n*width {
		f.tab = make([]float64, n*width)
	}
	f.tab = f.tab[:n*width]
	growFloats(&f.z, width)
	if cap(f.basis) < n {
		f.basis = make([]int, n)
	}
	f.basis = f.basis[:n]

	// Dual constraint row i: sum_j y_j W_j[i] + s_i = 0.
	for i := 0; i < n; i++ {
		row := f.tab[i*width : (i+1)*width]
		for j := 0; j < m; j++ {
			row[j] = ws[j][i]
		}
		for s := 0; s < n; s++ {
			if s == i {
				row[m+s] = 1
			} else {
				row[m+s] = 0
			}
		}
		f.basis[i] = m + i
	}
	// Reduced costs for max sum T_j y_j: z_j = -T_j on y columns.
	for j := 0; j < m; j++ {
		f.z[j] = -ts[j]
	}
	for s := 0; s < n; s++ {
		f.z[m+s] = 0
	}
}

// run iterates Bland pivots on the loaded tableau to the verdict.
func (f *Feaser) run() (feasible, ok bool) {
	n, width := f.n, f.width
	for iter := 0; iter < feaserMaxIter; iter++ {
		// Bland's rule: first column with negative reduced cost.
		col := -1
		for j := 0; j < width; j++ {
			if f.z[j] < -Eps {
				col = j
				break
			}
		}
		if col < 0 {
			return true, true // dual optimum 0: primal feasible
		}
		// Ratio test (all RHS zero): any row with a positive pivot element;
		// Bland tie-break on smallest basis index.
		rowIdx := -1
		for i := 0; i < n; i++ {
			if f.tab[i*width+col] > Eps {
				if rowIdx < 0 || f.basis[i] < f.basis[rowIdx] {
					rowIdx = i
				}
			}
		}
		if rowIdx < 0 {
			return false, true // unbounded dual ray: primal infeasible
		}
		f.Counters.Pivots++
		f.pivot(n, width, rowIdx, col)
	}
	return false, false // iteration cap: unreliable
}

// growFloats resizes *buf to length want, reusing capacity.
func growFloats(buf *[]float64, want int) []float64 {
	if cap(*buf) < want {
		*buf = make([]float64, want)
	}
	*buf = (*buf)[:want]
	return *buf
}

func (f *Feaser) pivot(n, width, row, col int) {
	eliminate(f.tab, width, n, row, col)
	pr := f.tab[row*width : (row+1)*width]
	eliminateAux(f.z, pr, col)
	f.basis[row] = col
}
