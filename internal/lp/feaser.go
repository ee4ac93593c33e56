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
// termination. A Feaser reuses its buffers across calls — the hot path of
// the arrangement algorithms runs millions of these queries.
//
// # Warm starts
//
// Because every RHS is zero, EVERY basis is primal-feasible in the dual
// tableau — re-entering a saved basis needs no phase 1 and no feasibility
// repair, only a reduced-cost refresh. In primal terms this is the
// dual-simplex reinstatement of a parent cell's basis in a child system
// ("parent rows + one appended >= row" becomes "parent columns + one
// appended column" here): FeasibleGEKeyed maps the snapshot's basic
// columns into the new system by coefficient-vector identity (see Key),
// prices the dual objective with y = cB·B⁻¹, and scans reduced costs. If
// the saved basis is still optimal the verdict is returned after that one
// scan with zero pivots and without materializing a tableau; otherwise the
// tableau is reconstructed as B⁻¹·A and the usual Bland iteration resumes
// from there. Thresholds T never enter the tableau — only the reduced-cost
// row — so a snapshot stays re-enterable across arbitrary threshold
// changes (the cell tree's axis-interval updates are free).
//
// A Feaser is not safe for concurrent use.
type Feaser struct {
	tab   []float64 // n rows x width cols, row-major
	z     []float64 // reduced-cost row, length width
	basis []int     // basis[i] = column basic in row i
	y     []float64 // dual prices scratch for warm re-entry, length n

	// Counters accumulates pivot and warm-start statistics across solves;
	// callers take deltas around call sites they want to attribute.
	Counters Counters

	n, m, width int
	keys        []Key  // caller's row keys for the last solve (aliased; may be nil)
	live        bool   // tab/z/basis hold a materialized, consistent state
	lastOK      bool   // last solve terminated within budget
	seedHit     *Basis // non-nil: last solve was a zero-pivot warm hit on this seed
}

// feaserMaxIter caps pivots; on overflow the caller should fall back to
// the two-phase solver (never observed in practice, pure safety).
const feaserMaxIter = 5000

// FeasibleGE reports whether {x >= 0 : ws[j]·x >= ts[j] for all j} has a
// solution, and whether the simplex run stayed within its iteration
// budget (ok=false means "answer unreliable, use the robust path").
func (f *Feaser) FeasibleGE(n int, ws [][]float64, ts []float64) (feasible, ok bool) {
	return f.FeasibleGEKeyed(n, ws, ts, nil, nil)
}

// FeasibleGEKeyed is FeasibleGE with warm-start support. keys[j] identifies
// row j across solves (nil entries mark transient rows; a nil slice
// disables key matching entirely), and seed is a basis snapshot from a
// related system to re-enter, or nil for a cold start. Verdicts are
// identical warm or cold — a warm start changes the pivot path, never the
// answer: both paths terminate at the same LP's optimality/unboundedness
// condition under the same Eps tolerances.
func (f *Feaser) FeasibleGEKeyed(n int, ws [][]float64, ts []float64, keys []Key, seed *Basis) (feasible, ok bool) {
	m := len(ws)
	if m == 0 {
		f.lastOK = false
		f.seedHit = nil
		return true, true
	}
	f.n, f.m, f.width = n, m, m+n
	f.keys = keys
	f.seedHit = nil
	f.live = false
	f.lastOK = false
	if seed.Valid(n) && len(keys) == m {
		feas, decided := f.enterWarm(ws, ts, keys, seed)
		if decided {
			// Zero pivots: the seed basis is already optimal (hence the
			// system feasible); no tableau was materialized.
			f.Counters.WarmHits++
			f.seedHit = seed
			f.lastOK = true
			return feas, true
		}
		if f.live {
			f.Counters.WarmHits++
			return f.run()
		}
		f.Counters.WarmMisses++
	}
	f.Counters.ColdSolves++
	f.loadCold(ws, ts)
	return f.run()
}

// ExportBasis snapshots the current basis into dst and reports success.
// Export requires the last keyed solve to have terminated within budget
// with every basic constraint column carrying a non-nil key (transient
// rows may not anchor a snapshot — their buffers get rewritten). After a
// zero-pivot warm hit the seed itself is copied, since the basis did not
// move. dst must not be shared with another goroutine yet; publishing it
// (e.g. storing it on a cell) freezes it.
func (f *Feaser) ExportBasis(dst *Basis) bool {
	if !f.lastOK {
		return false
	}
	if f.seedHit != nil {
		dst.copyFrom(f.seedHit)
		return true
	}
	if !f.live || f.keys == nil {
		return false
	}
	n, m, width := f.n, f.m, f.width
	for i := 0; i < n; i++ {
		if b := f.basis[i]; b < m && f.keys[b] == nil {
			return false
		}
	}
	dst.Dim = n
	if cap(dst.binv) < n*n {
		dst.binv = make([]float64, n*n)
	}
	dst.binv = dst.binv[:n*n]
	if cap(dst.ent) < n {
		dst.ent = make([]basisEntry, n)
	}
	dst.ent = dst.ent[:n]
	for i := 0; i < n; i++ {
		// The slack block of the dual tableau is exactly B⁻¹: the slack
		// columns start as the identity and every pivot applies B⁻¹'s row
		// operations to them.
		copy(dst.binv[i*n:(i+1)*n], f.tab[i*width+m:i*width+m+n])
		if b := f.basis[i]; b < m {
			dst.ent[i] = basisEntry{key: f.keys[b]}
		} else {
			dst.ent[i] = basisEntry{key: nil, slack: int32(b - m)}
		}
	}
	return true
}

// enterWarm attempts to reinstate seed in the (ws, ts) system. On success
// it either decides the solve outright (decided=true: the seed basis is
// optimal, zero pivots) or leaves a materialized tableau behind
// (f.live=true) for run() to finish. A failed mapping leaves f.live false.
func (f *Feaser) enterWarm(ws [][]float64, ts []float64, keys []Key, seed *Basis) (feasible, decided bool) {
	n, m, width := f.n, f.m, f.width
	if cap(f.basis) < n {
		f.basis = make([]int, n)
	}
	f.basis = f.basis[:n]
	// Map each basic column of the snapshot into the new system.
	for i := 0; i < n; i++ {
		e := seed.ent[i]
		if e.key == nil {
			f.basis[i] = m + int(e.slack)
			continue
		}
		col := -1
		for j := 0; j < m; j++ {
			if keys[j] == e.key {
				col = j
				break
			}
		}
		if col < 0 {
			return false, false
		}
		f.basis[i] = col
	}
	// A duplicated mapping would make the basis singular; refuse (can only
	// happen if the caller keyed two distinct rows identically).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if f.basis[i] == f.basis[j] {
				return false, false
			}
		}
	}
	// Dual prices y = cB·B⁻¹ with cB[r] = T of the basic constraint column
	// (slacks cost zero), then reduced costs z_j = y·W_j - T_j on constraint
	// columns and z_{m+s} = y_s on slack columns. Thresholds enter only
	// here, never the tableau.
	y := growFloats(&f.y, n)
	for i := range y {
		y[i] = 0
	}
	for r := 0; r < n; r++ {
		b := f.basis[r]
		if b >= m {
			continue
		}
		cb := ts[b]
		if cb == 0 {
			continue
		}
		brow := seed.binv[r*n : (r+1)*n]
		for i, v := range brow {
			y[i] += cb * v
		}
	}
	z := growFloats(&f.z, width)
	opt := true
	for j := 0; j < m; j++ {
		wj := ws[j]
		acc := -ts[j]
		for i := 0; i < n; i++ {
			acc += y[i] * wj[i]
		}
		z[j] = acc
		if acc < -Eps {
			opt = false
		}
	}
	for s := 0; s < n; s++ {
		z[m+s] = y[s]
		if y[s] < -Eps {
			opt = false
		}
	}
	if opt {
		return true, true
	}
	// Materialize the tableau B⁻¹·A (constraint column j is B⁻¹·W_j, slack
	// block is B⁻¹ itself) and let the ordinary iteration finish.
	if cap(f.tab) < n*width {
		f.tab = make([]float64, n*width)
	}
	f.tab = f.tab[:n*width]
	for i := 0; i < n; i++ {
		row := f.tab[i*width : (i+1)*width]
		bi := seed.binv[i*n : (i+1)*n]
		for j := 0; j < m; j++ {
			wj := ws[j]
			acc := 0.0
			for r := 0; r < n; r++ {
				acc += bi[r] * wj[r]
			}
			row[j] = acc
		}
		copy(row[m:m+n], bi)
	}
	f.live = true
	return false, false
}

// loadCold fills the tableau from the slack basis exactly as the original
// implementation did.
func (f *Feaser) loadCold(ws [][]float64, ts []float64) {
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
	f.live = true
}

// run iterates Bland pivots on the loaded (or warm-materialized) tableau
// to the verdict. The pivot sequence from a cold load is identical to the
// pre-warm-start implementation.
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
			f.lastOK = true
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
			f.lastOK = true
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
