package geom

import (
	"sync"

	"mir/internal/lp"
)

// This file implements split-time redundancy elimination for arrangement
// cells. A cell's raw H-representation grows by one halfspace per ancestor
// split, so constraint counts grow linearly with tree depth while most
// ancestor boundaries end up far away from the (shrinking) cell. Reducing
// the representation at split time keeps every downstream feasibility and
// classification solve small.
//
// The reduction is exact as a point set, which is what lets AA's output
// stay byte-identical with pruning on or off:
//
//  1. The cell's bounding box [lo, hi] (a certified superset of the cell)
//     enters the representation explicitly as 2d axis rows. The axis rows
//     share globally cached unit normals, so they cost no per-cell vector
//     allocations.
//  2. O(d) interval prescreen: any original row whose minimum over the box
//     clears its threshold is satisfied everywhere in the box, hence
//     implied by the axis rows, and is dropped. Exactness: with the box
//     rows present, box ∩ survivors = box ∩ all rows = cell.
//  3. One small LP per surviving suspect row: a row is dropped when the
//     cell minus that row still lies strictly (by reduceLPTol) inside it —
//     i.e. {other rows, W·x <= T + reduceLPTol} is infeasible. The margin
//     makes the drop robust to the solver's own lp.Eps-scale noise.

// reduceBoxTol absorbs the interval arithmetic's floating-point roundoff:
// a row is treated as implied by the box when its minimum over the box
// falls short of the threshold by at most this much. The slack is five
// orders of magnitude below ClassifyTol, so the (at most) reduceBoxTol-thin
// sliver a drop can add to the region is invisible to classification.
const reduceBoxTol = 1e-12

// reduceLPTol is the implication margin of the LP-backed phase: a suspect
// row is dropped only when every point satisfying the remaining rows clears
// the suspect's threshold by more than this. It sits one order of magnitude
// above lp.Eps (pivot noise) and one below ClassifyTol.
const reduceLPTol = 1e-8

// unitCache shares the +e_j / -e_j normals of axis-aligned halfspaces
// across all cells, keyed by dimension. The vectors are immutable by the
// package's sharing convention.
var unitCache sync.Map // int -> [2][]Vector

func unitVectors(dim int) (pos, neg []Vector) {
	if v, ok := unitCache.Load(dim); ok {
		pair := v.([2][]Vector)
		return pair[0], pair[1]
	}
	pos = make([]Vector, dim)
	neg = make([]Vector, dim)
	backing := make([]float64, 2*dim*dim)
	for j := 0; j < dim; j++ {
		p := backing[2*j*dim : (2*j+1)*dim]
		n := backing[(2*j+1)*dim : (2*j+2)*dim]
		p[j] = 1
		n[j] = -1
		pos[j] = p
		neg[j] = n
	}
	actual, _ := unitCache.LoadOrStore(dim, [2][]Vector{pos, neg})
	pair := actual.([2][]Vector)
	return pair[0], pair[1]
}

// ReduceStats reports what a ReduceCell call did.
type ReduceStats struct {
	// BoxDropped rows were eliminated by the O(d) interval prescreen.
	BoxDropped int
	// LPTests counts the feasibility solves run by the LP phase.
	LPTests int
	// LPDropped rows were eliminated by the LP phase.
	LPDropped int
}

// ReduceCell returns an equivalent, typically much smaller
// H-representation for a cell with raw constraint rows hs and certified
// bounding box [lo, hi]: 2*dim axis rows encoding the box followed by the
// rows of hs that survive redundancy elimination, in their original order.
// The returned slice is freshly allocated; the axis rows share cached unit
// normals and the surviving rows share hs's coefficient vectors. ctr, when
// non-nil, accumulates the LP effort counters.
func ReduceCell(dim int, hs []Halfspace, lo, hi Vector, ctr *lp.Counters) ([]Halfspace, ReduceStats) {
	var st ReduceStats
	pos, neg := unitVectors(dim)
	out := make([]Halfspace, 0, 2*dim+len(hs))
	for j := 0; j < dim; j++ {
		out = append(out, Halfspace{W: pos[j], T: lo[j]})  // x_j >= lo_j
		out = append(out, Halfspace{W: neg[j], T: -hi[j]}) // x_j <= hi_j
	}
	nBox := len(out)

	// Phase A: interval prescreen against the box.
	for _, h := range hs {
		minOver := 0.0
		for j, w := range h.W {
			if w >= 0 {
				minOver += w * lo[j]
			} else {
				minOver += w * hi[j]
			}
		}
		if minOver >= h.T-reduceBoxTol {
			st.BoxDropped++
			continue
		}
		out = append(out, h)
	}

	// Phase B: one Feaser solve per surviving suspect row. Testing row i
	// against the current survivor set (rows already dropped excluded) in
	// ascending order is deterministic and never drops two rows that only
	// imply each other jointly.
	if len(out) > nBox+1 {
		s := getScratch()
		f0, w0 := s.f.Counters, s.w.Counters
		for i := nBox; i < len(out); {
			h := out[i]
			// Load every row except i, then ask for a point at or below the
			// suspect's boundary (W·x <= T + margin, i.e. -W·x >= -(T+margin)).
			s.ws = s.ws[:0]
			s.ts = s.ts[:0]
			for k, o := range out {
				if k == i {
					continue
				}
				s.ws = append(s.ws, o.W)
				s.ts = append(s.ts, o.T)
			}
			nneg := growFloat(&s.neg, dim)
			for j, w := range h.W {
				nneg[j] = -w
			}
			s.ws = append(s.ws, nneg)
			s.ts = append(s.ts, -(h.T + reduceLPTol))
			st.LPTests++
			if !s.solve(dim) {
				// No point of the other rows reaches the suspect's boundary:
				// the row is strictly implied — drop it (order-preserving).
				out = append(out[:i], out[i+1:]...)
				st.LPDropped++
				continue
			}
			i++
		}
		if ctr != nil {
			d := s.f.Counters.Sub(f0)
			d.Add(s.w.Counters.Sub(w0))
			ctr.Add(d)
		}
		feaserPool.Put(s)
	}
	return out, st
}
