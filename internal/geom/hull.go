package geom

import (
	"sort"
	"sync"

	"mir/internal/lp"
)

// ExtremePoints returns the indices of the points of pts that are vertices
// of the convex hull conv(pts), in arbitrary dimension.
//
// The result V satisfies conv(V) = conv(pts), which is the property Lemmas
// 3 and 4 of the paper require. Borderline points (on a hull facet) may be
// conservatively included; that enlarges V without breaking conv(V) =
// conv(pts).
//
// Dimensions 1 and 2 use direct methods (min/max scan, Andrew's monotone
// chain); higher dimensions use one small linear program per point ("is
// pts[i] a convex combination of the others?"), replacing the qhull
// dependency of the original implementation.
func ExtremePoints(pts []Vector) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if n <= 2 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	switch len(pts[0]) {
	case 1:
		return extreme1D(pts)
	case 2:
		return extreme2D(pts)
	default:
		return extremeLP(pts)
	}
}

// extreme1D returns the argmin and argmax of one-dimensional points.
func extreme1D(pts []Vector) []int {
	lo, hi := 0, 0
	for i, p := range pts {
		if p[0] < pts[lo][0] {
			lo = i
		}
		if p[0] > pts[hi][0] {
			hi = i
		}
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// hull2DScratch holds the reusable working state of extreme2D; the sort
// runs through the sort.Interface implementation so no per-call closures
// escape. Only the returned vertex list is freshly allocated (callers cache
// it).
type hull2DScratch struct {
	pts          []Vector
	order        []int
	lower, upper []int
	seen         []bool
}

func (s *hull2DScratch) Len() int      { return len(s.order) }
func (s *hull2DScratch) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *hull2DScratch) Less(a, b int) bool {
	pa, pb := s.pts[s.order[a]], s.pts[s.order[b]]
	if pa[0] != pb[0] {
		return pa[0] < pb[0]
	}
	return pa[1] < pb[1]
}

var hull2DPool = sync.Pool{New: func() any { return new(hull2DScratch) }}

func cross2D(o, a, b Vector) float64 {
	return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
}

// chain2D appends the monotone-chain hull of s.pts over s.order (walked
// forward or backward) into hull and returns it.
func chain2D(pts []Vector, order []int, backward bool, hull []int) []int {
	for k := range order {
		i := order[k]
		if backward {
			i = order[len(order)-1-k]
		}
		for len(hull) >= 2 &&
			cross2D(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) < -Eps {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return hull
}

// extreme2D runs Andrew's monotone chain. Collinear boundary points are
// retained (safe over-approximation of the vertex set).
func extreme2D(pts []Vector) []int {
	n := len(pts)
	s := hull2DPool.Get().(*hull2DScratch)
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.seen = make([]bool, n)
	}
	s.order = s.order[:n]
	s.seen = s.seen[:n]
	for i := range s.order {
		s.order[i] = i
		s.seen[i] = false
	}
	s.pts = pts
	sort.Sort(s)
	s.lower = chain2D(pts, s.order, false, s.lower[:0])
	s.upper = chain2D(pts, s.order, true, s.upper[:0])
	var out []int
	for _, i := range s.lower {
		if !s.seen[i] {
			s.seen[i] = true
			out = append(out, i)
		}
	}
	for _, i := range s.upper {
		if !s.seen[i] {
			s.seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	s.pts = nil
	hull2DPool.Put(s)
	return out
}

// extremeLP tests each point against the hull of the remaining points.
func extremeLP(pts []Vector) []int {
	var out []int
	others := make([]Vector, 0, len(pts)-1)
	for i, p := range pts {
		others = others[:0]
		for j, q := range pts {
			if j != i {
				others = append(others, q)
			}
		}
		if !InConvexHull(p, others) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		// All points coincide (each is a combination of the duplicates);
		// keep one representative.
		out = append(out, 0)
	}
	return out
}

// InConvexHull reports whether q is a convex combination of pts. It solves
// the feasibility program: alpha >= 0, sum(alpha) = 1, sum(alpha_j pts_j) =
// q. Exact equalities are used, so borderline points round toward "not in
// hull" — the safe direction for vertex-set computations.
//
// The program is assembled into a pooled flat scratch and solved on the
// scratch's reusable workspace: this is AA's inner-group hot path and runs
// allocation-free in steady state.
func InConvexHull(q Vector, pts []Vector) bool {
	return InConvexHullCounted(q, pts, nil)
}

// InConvexHullCounted is InConvexHull with LP effort accounting: the
// underlying workspace's pivot and solve counters are accumulated into ctr
// when it is non-nil. The solve path is identical.
func InConvexHullCounted(q Vector, pts []Vector, ctr *lp.Counters) bool {
	n := len(pts)
	if n == 0 {
		return false
	}
	dim := len(q)
	s := getScratch()
	defer feaserPool.Put(s)
	if ctr != nil {
		w0 := s.w.Counters
		defer func() { ctr.Add(s.w.Counters.Sub(w0)) }()
	}
	// 2*(dim+1) inequality rows encode the dim+1 equalities, in the same
	// row order as the original implementation (pos/neg pairs per
	// coordinate, then the two convexity rows).
	rows := 2 * (dim + 1)
	A := growFloat(&s.aFlat, rows*n)
	b := growFloat(&s.bBuf, rows)
	for t := 0; t < dim; t++ {
		pos := A[(2*t)*n : (2*t+1)*n]
		neg := A[(2*t+1)*n : (2*t+2)*n]
		for j := 0; j < n; j++ {
			v := pts[j][t]
			pos[j] = v
			neg[j] = -v
		}
		b[2*t] = q[t] + hullTol
		b[2*t+1] = -q[t] + hullTol
	}
	ones := A[2*dim*n : (2*dim+1)*n]
	negOnes := A[(2*dim+1)*n : (2*dim+2)*n]
	for j := 0; j < n; j++ {
		ones[j] = 1
		negOnes[j] = -1
	}
	b[2*dim] = 1 + hullTol
	b[2*dim+1] = -1 + hullTol
	ok, _ := s.w.FeasibleFlat(n, A, b)
	return ok
}

// hullTol relaxes the convex-combination equalities by a hair so that
// points numerically identical to a hull member are recognized as inside.
const hullTol = 1e-9
