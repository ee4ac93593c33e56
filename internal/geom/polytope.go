package geom

import (
	"mir/internal/lp"
)

// Relation classifies a halfspace against a convex region.
type Relation int

const (
	// Covers: the region lies entirely inside the halfspace.
	Covers Relation = iota
	// Excludes: the region lies entirely outside the halfspace.
	Excludes
	// Cuts: the halfspace boundary passes through the region.
	Cuts
)

// String returns a human-readable relation name.
func (r Relation) String() string {
	switch r {
	case Covers:
		return "covers"
	case Excludes:
		return "excludes"
	case Cuts:
		return "cuts"
	default:
		return "unknown"
	}
}

// ClassifyTol is the tolerance used when deciding whether a halfspace
// covers, excludes, or cuts a polytope. Intersections thinner than this are
// treated as boundary touches (measure zero) and do not count as cuts.
//
// ClassifyTol is the authoritative constant for geometric classification
// decisions, just as lp.Eps (1e-9) is the authoritative constant for
// numerical-zero questions inside the simplex solvers. The two are
// deliberately two orders of magnitude apart: every classification runs as
// feasibility tests on slabs of half-width ClassifyTol, so LP answers would
// have to be wrong by 100x their pivot tolerance to flip a relation.
// tolerance_test.go pins both the ordering and the boundary stability.
const ClassifyTol = 1e-7

// Polytope is a convex region in H-representation: the intersection of the
// non-negative orthant with a set of closed halfspaces {W·x >= T}. All
// regions manipulated by the mIR algorithms (arrangement cells, group
// intersections) are polytopes of this form.
type Polytope struct {
	Dim int
	Hs  []Halfspace
}

// NewBox returns the axis-aligned box [lo, hi]^dim as a polytope. The lower
// bounds are included explicitly even though the orthant implies lo >= 0,
// so the H-representation is self-describing.
func NewBox(dim int, lo, hi float64) *Polytope {
	p := &Polytope{Dim: dim, Hs: make([]Halfspace, 0, 2*dim)}
	for i := 0; i < dim; i++ {
		wLo := make(Vector, dim)
		wLo[i] = 1
		p.Hs = append(p.Hs, Halfspace{W: wLo, T: lo}) // x_i >= lo
		wHi := make(Vector, dim)
		wHi[i] = -1
		p.Hs = append(p.Hs, Halfspace{W: wHi, T: -hi}) // x_i <= hi
	}
	return p
}

// NewBoxCorners returns the axis-aligned box [lo[i], hi[i]] per dimension.
func NewBoxCorners(lo, hi Vector) *Polytope {
	dim := len(lo)
	p := &Polytope{Dim: dim, Hs: make([]Halfspace, 0, 2*dim)}
	for i := 0; i < dim; i++ {
		wLo := make(Vector, dim)
		wLo[i] = 1
		p.Hs = append(p.Hs, Halfspace{W: wLo, T: lo[i]})
		wHi := make(Vector, dim)
		wHi[i] = -1
		p.Hs = append(p.Hs, Halfspace{W: wHi, T: -hi[i]})
	}
	return p
}

// Clone returns a polytope sharing no mutable state with p. The halfspace
// slice is copied; the coefficient vectors themselves are immutable by
// convention and shared.
func (p *Polytope) Clone() *Polytope {
	hs := make([]Halfspace, len(p.Hs))
	copy(hs, p.Hs)
	return &Polytope{Dim: p.Dim, Hs: hs}
}

// With returns a new polytope further constrained by h, sharing the
// existing constraint storage where possible.
func (p *Polytope) With(h Halfspace) *Polytope {
	hs := make([]Halfspace, len(p.Hs)+1)
	copy(hs, p.Hs)
	hs[len(p.Hs)] = h
	return &Polytope{Dim: p.Dim, Hs: hs}
}

// Append adds h to p in place.
func (p *Polytope) Append(h Halfspace) { p.Hs = append(p.Hs, h) }

// IsEmpty reports whether the polytope has no points (up to tolerance).
func (p *Polytope) IsEmpty() bool {
	f := getScratch()
	feas := f.feasible(p)
	feaserPool.Put(f)
	return !feas
}

// FeasiblePoint returns a point of the polytope, or ok=false when empty.
// The returned vector is caller-owned.
func (p *Polytope) FeasiblePoint() (Vector, bool) {
	s := getScratch()
	defer feaserPool.Put(s)
	A, b := s.loadLP(p)
	ok, x := s.w.FeasibleFlat(p.Dim, A, b)
	if !ok {
		return nil, false
	}
	return Vector(append([]float64(nil), x...)), true
}

// Maximize returns max obj·x over the polytope along with a maximizer.
// ok is false when the polytope is empty or the program is unbounded
// (which cannot happen for the box-bounded cells used by mIR). The
// returned vector is caller-owned.
func (p *Polytope) Maximize(obj Vector) (val float64, arg Vector, ok bool) {
	s := getScratch()
	defer feaserPool.Put(s)
	A, b := s.loadLP(p)
	r := s.w.MaximizeFlat(obj, A, b)
	if r.Status != lp.Optimal {
		return 0, nil, false
	}
	return r.Obj, Vector(append([]float64(nil), r.X...)), true
}

// Minimize returns min obj·x over the polytope along with a minimizer.
// The returned vector is caller-owned.
func (p *Polytope) Minimize(obj Vector) (val float64, arg Vector, ok bool) {
	s := getScratch()
	defer feaserPool.Put(s)
	neg := growFloat(&s.cBuf, len(obj))
	for i, v := range obj {
		neg[i] = -v
	}
	A, b := s.loadLP(p)
	r := s.w.MaximizeFlat(neg, A, b)
	if r.Status != lp.Optimal {
		return 0, nil, false
	}
	return -r.Obj, Vector(append([]float64(nil), r.X...)), true
}

// Classify determines the relation between the polytope and halfspace h.
// An empty polytope classifies as Excludes, as does a degenerate sliver
// thinner than ClassifyTol around the boundary (measure zero for the mIR
// semantics).
//
// The test runs as two feasibility checks rather than min/max
// optimizations: "is any point of p more than ClassifyTol below the
// boundary?" and "... above the boundary?". Each check runs on the dual
// simplex (lp.Feaser), which has only d rows and no phase 1 — this is the
// hot path of the arrangement algorithms.
func (p *Polytope) Classify(h Halfspace) Relation {
	return p.ClassifyCounted(h, nil)
}

// ClassifyCounted is Classify with LP effort accounting: the pivot and
// solve counters of the underlying solvers are accumulated into ctr
// (nil: not counted).
func (p *Polytope) ClassifyCounted(h Halfspace, ctr *lp.Counters) Relation {
	f := getScratch()
	defer feaserPool.Put(f)
	f0, w0 := f.f.Counters, f.w.Counters
	f.load(p)
	// below: p ∩ {W·x <= T - tol}, expressed as {-W·x >= -(T - tol)}.
	f.neg = f.neg[:0]
	for _, w := range h.W {
		f.neg = append(f.neg, -w)
	}
	f.ws = append(f.ws, f.neg)
	f.ts = append(f.ts, -(h.T - ClassifyTol))
	belowEmpty := !f.solve(p.Dim)
	f.ws[len(f.ws)-1] = h.W
	f.ts[len(f.ts)-1] = h.T + ClassifyTol
	aboveEmpty := !f.solve(p.Dim)
	if ctr != nil {
		d := f.f.Counters.Sub(f0)
		d.Add(f.w.Counters.Sub(w0))
		ctr.Add(d)
	}
	switch {
	case belowEmpty && !aboveEmpty:
		return Covers
	case aboveEmpty && !belowEmpty:
		return Excludes
	case belowEmpty && aboveEmpty:
		return Excludes // empty or boundary-thin polytope
	default:
		return Cuts
	}
}

// MBB returns the minimum bounding box of the polytope as (lo, hi) corner
// vectors. ok is false when the polytope is empty. The constraint matrix
// is loaded once into a pooled scratch; each of the 2d directional
// optima is then a cold two-phase solve over it.
func (p *Polytope) MBB() (lo, hi Vector, ok bool) {
	s := getScratch()
	defer feaserPool.Put(s)
	A, b := s.loadLP(p)
	lo = make(Vector, p.Dim)
	hi = make(Vector, p.Dim)
	obj := growFloat(&s.cBuf, p.Dim)
	for i := range obj {
		obj[i] = 0
	}
	for i := 0; i < p.Dim; i++ {
		// min x_i = -max(-x_i).
		obj[i] = -1
		r := s.w.MaximizeFlat(obj, A, b)
		if r.Status != lp.Optimal {
			return nil, nil, false
		}
		lo[i] = -r.Obj
		obj[i] = 1
		r = s.w.MaximizeFlat(obj, A, b)
		if r.Status != lp.Optimal {
			return nil, nil, false
		}
		hi[i] = r.Obj
		obj[i] = 0
	}
	return lo, hi, true
}

// ContainsPoint reports whether x satisfies every constraint (within Eps)
// and lies in the non-negative orthant.
func (p *Polytope) ContainsPoint(x Vector) bool {
	for _, v := range x {
		if v < -Eps {
			return false
		}
	}
	for _, h := range p.Hs {
		if !h.Contains(x) {
			return false
		}
	}
	return true
}
