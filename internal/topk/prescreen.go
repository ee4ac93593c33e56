package topk

import (
	"fmt"
	"math"

	"mir/internal/geom"
)

// This file exports the layered index's blocked band-maxima idea for a
// second consumer: the space-sharded arrangement. Before a shard's AA
// run starts, every influential halfspace {x : w·x >= t} is classified
// against the shard's box — if the boundary provably misses the box the
// halfspace is absorbed into the shard root's counts at O(d) cost and
// never enters per-cell classification. The bounds are the same
// componentwise extrema the index keeps per product block, here taken
// over blocks of halfspace normal rows and dotted against box corners
// with the geom.DotRows kernel.

// prescreenBlockRows is the band granularity of HalfspaceBands: per
// block of this many normal rows the bands keep componentwise
// weight extrema and threshold extrema, so a block whose whole band
// provably covers or misses a box is decided in O(d) instead of
// O(rows·d).
const prescreenBlockRows = 64

// HalfspaceBands holds blocked bounds over a set of halfspaces
// {x : w_i·x >= t_i} whose normals are the rows of a flat row-major
// n×d matrix: per block, the componentwise minimum and maximum of the
// normal rows and the minimum and maximum threshold. The structure is
// immutable once built and safe for concurrent Prescreen calls (each
// shard of a sharded AA build prescreens its own box concurrently).
type HalfspaceBands struct {
	n, d int
	flat []float64 // row-major n×d normals (aliases the caller's backing)
	t    []float64 // thresholds, len n

	// Per block b: wMin/wMax[b*d : (b+1)*d] bracket every normal row of
	// the block componentwise; tMin/tMax[b] bracket its thresholds;
	// nonneg[b] records that every bracketed component is >= 0, enabling
	// the DotRows fast path for per-row refinement (a nonnegative row's
	// score over a box is minimized at the low corner and maximized at
	// the high corner).
	wMin, wMax []float64
	tMin, tMax []float64
	nonneg     []bool
}

// NewHalfspaceBands builds the blocked bounds over n = len(t) halfspaces
// whose normals are the rows of flat (row-major, d columns). flat is
// retained, not copied; callers must not mutate it afterwards.
func NewHalfspaceBands(flat []float64, d int, t []float64) *HalfspaceBands {
	n := len(t)
	if len(flat) != n*d {
		panic(fmt.Sprintf("topk: HalfspaceBands matrix has %d values, want %d (n=%d d=%d)", len(flat), n*d, n, d))
	}
	blocks := (n + prescreenBlockRows - 1) / prescreenBlockRows
	b := &HalfspaceBands{
		n: n, d: d, flat: flat, t: t,
		wMin:   make([]float64, blocks*d),
		wMax:   make([]float64, blocks*d),
		tMin:   make([]float64, blocks),
		tMax:   make([]float64, blocks),
		nonneg: make([]bool, blocks),
	}
	for bi := 0; bi < blocks; bi++ {
		lo, hi := bi*prescreenBlockRows, (bi+1)*prescreenBlockRows
		if hi > n {
			hi = n
		}
		wMin := b.wMin[bi*d : (bi+1)*d]
		wMax := b.wMax[bi*d : (bi+1)*d]
		for j := 0; j < d; j++ {
			wMin[j] = math.Inf(1)
			wMax[j] = math.Inf(-1)
		}
		rows := flat[lo*d : hi*d]
		geom.RowMin(rows, d, wMin)
		geom.RowMax(rows, d, wMax)
		b.nonneg[bi] = true
		for j := 0; j < d; j++ {
			if wMin[j] < 0 {
				b.nonneg[bi] = false
				break
			}
		}
		b.tMin[bi], b.tMax[bi] = t[lo], t[lo]
		for i := lo + 1; i < hi; i++ {
			if t[i] < b.tMin[bi] {
				b.tMin[bi] = t[i]
			}
			if t[i] > b.tMax[bi] {
				b.tMax[bi] = t[i]
			}
		}
	}
	return b
}

// Len returns the number of halfspaces the bands cover.
func (b *HalfspaceBands) Len() int { return b.n }

// PrescreenStats profiles one Prescreen call.
type PrescreenStats struct {
	// BlockSkips counts blocks decided whole by the band bounds (no
	// per-row work); Covers/Excludes/Cuts partition the classified rows.
	BlockSkips int
	Covers     int
	Excludes   int
	Cuts       int
}

// Prescreen classifies every halfspace against the box [lo, hi]:
// out[i] = Covers when the box provably lies inside halfspace i
// (min over the box of w_i·x >= t_i within tolerance), Excludes when it
// provably lies outside, Cuts when the boundary may intersect the box.
// The per-row bound is the corner bound of the arrangement's MBB fast
// test (celltree.Cell.FastClassifyInto) under the same ClassifyTol slab
// convention — a conclusive prescreen answer is one the per-cell
// classifier would also accept on the shard root, so absorbing it early
// is sound. (Accumulation association may differ from the fast test's
// by ulps, which the 1e-7 tolerance dwarfs.)
// Blocks are first tested whole against the band bounds; only blocks
// the bands cannot decide are refined row by row.
func (b *HalfspaceBands) Prescreen(lo, hi geom.Vector, out []geom.Relation) PrescreenStats {
	if len(lo) != b.d || len(hi) != b.d {
		panic(fmt.Sprintf("topk: Prescreen box has %d/%d components, want %d", len(lo), len(hi), b.d))
	}
	if len(out) != b.n {
		panic(fmt.Sprintf("topk: Prescreen output has %d slots, want %d", len(out), b.n))
	}
	var st PrescreenStats
	var rowLo, rowHi [prescreenBlockRows]float64
	blocks := len(b.tMin)
	for bi := 0; bi < blocks; bi++ {
		rlo, rhi := bi*prescreenBlockRows, (bi+1)*prescreenBlockRows
		if rhi > b.n {
			rhi = b.n
		}
		wMin := b.wMin[bi*b.d : (bi+1)*b.d]
		wMax := b.wMax[bi*b.d : (bi+1)*b.d]
		// Band bound: for every row w of the block and every x in the box,
		// w·x lies in [bandLo, bandHi]. Each component's contribution is
		// bracketed by the four products of its weight extremes with the
		// box corner coordinates, which needs no sign analysis and stays
		// valid for mixed-sign bands and boxes.
		bandLo, bandHi := 0.0, 0.0
		for j := 0; j < b.d; j++ {
			a0, a1 := wMin[j]*lo[j], wMin[j]*hi[j]
			a2, a3 := wMax[j]*lo[j], wMax[j]*hi[j]
			bandLo += min4(a0, a1, a2, a3)
			bandHi += max4(a0, a1, a2, a3)
		}
		if bandLo >= b.tMax[bi]-geom.ClassifyTol {
			for i := rlo; i < rhi; i++ {
				out[i] = geom.Covers
			}
			st.BlockSkips++
			st.Covers += rhi - rlo
			continue
		}
		if bandHi <= b.tMin[bi]+geom.ClassifyTol {
			for i := rlo; i < rhi; i++ {
				out[i] = geom.Excludes
			}
			st.BlockSkips++
			st.Excludes += rhi - rlo
			continue
		}
		// Per-row refinement. Nonnegative bands score-minimize at the low
		// corner and maximize at the high corner uniformly, so two DotRows
		// sweeps bound the whole block; mixed-sign bands fall back to the
		// per-row sign split of the MBB fast test.
		rows := rhi - rlo
		if b.nonneg[bi] {
			geom.DotRows(b.flat[rlo*b.d:], b.d, lo, rowLo[:rows])
			geom.DotRows(b.flat[rlo*b.d:], b.d, hi, rowHi[:rows])
		} else {
			for i := 0; i < rows; i++ {
				row := b.flat[(rlo+i)*b.d : (rlo+i+1)*b.d]
				l, h := 0.0, 0.0
				for j, w := range row {
					if w >= 0 {
						l += w * lo[j]
						h += w * hi[j]
					} else {
						l += w * hi[j]
						h += w * lo[j]
					}
				}
				rowLo[i], rowHi[i] = l, h
			}
		}
		for i := 0; i < rows; i++ {
			switch {
			case rowLo[i] >= b.t[rlo+i]-geom.ClassifyTol:
				out[rlo+i] = geom.Covers
				st.Covers++
			case rowHi[i] <= b.t[rlo+i]+geom.ClassifyTol:
				out[rlo+i] = geom.Excludes
				st.Excludes++
			default:
				out[rlo+i] = geom.Cuts
				st.Cuts++
			}
		}
	}
	return st
}

func min4(a, b, c, d float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	if d < a {
		a = d
	}
	return a
}

func max4(a, b, c, d float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	if d > a {
		a = d
	}
	return a
}
