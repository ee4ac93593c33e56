package geom

import (
	"fmt"

	"mir/internal/kern"
)

// This file holds the flat-matrix scoring entry points behind the
// top-k index (internal/topk): batched inner products of one weight
// vector against the rows of a row-major d-column matrix, and
// componentwise row maxima. The batched forms exist so the index can
// score whole product blocks over contiguous memory instead of chasing
// per-product heap vectors.
//
// The actual loops live in internal/kern: each entry point validates
// its arguments and calls the kern loop once per matrix. DotRows runs
// kern's width-specialized blocked kernel, which reproduces kern's
// verbatim copy of the historical loop bit for bit (see kern's package
// comment for the exact contract and the NaN-payload caveat); RowMax
// is a plain strictly-greater loop.
//
// Bit-identity contract: for every row r, the result equals
// w.Dot(row_r) exactly — same multiplication pairs, same accumulation
// tree (the four-way-unrolled s0..s3 sums of dot, folded as
// (s0+s1)+(s2+s3)). The indexed and naive top-k paths therefore produce
// byte-identical scores, which the engine's index-on/off determinism
// guarantee rests on.

// DotRows computes out[r] = w · flat[r*d : (r+1)*d] for every r in
// [0, len(out)) via the blocked kernel. flat must hold at least
// len(out)*d values and w must have length d. out must not alias w
// (never the case in-repo: outputs are scratch buffers, weights are
// user vectors).
func DotRows(flat []float64, d int, w Vector, out []float64) {
	if len(w) != d {
		panic(fmt.Sprintf("geom: DotRows weight has %d components, want %d", len(w), d))
	}
	n := len(out)
	if n == 0 {
		return
	}
	if len(flat) < n*d {
		panic(fmt.Sprintf("geom: DotRows matrix has %d values, need %d", len(flat), n*d))
	}
	if d == 0 {
		// Zero-width rows: a shape the kernels assume away.
		for r := range out {
			out[r] = 0
		}
		return
	}
	kern.DotRows(flat, d, w, out)
}

// RowMax widens max (length d) to the componentwise maximum of itself
// and the rows of flat. It is the bound-maintenance helper of the top-k
// index: a block's per-dimension maxima, dotted with a non-negative
// weight vector, upper-bound every score in the block.
// flat must hold whole rows (a multiple of d values) and max must have
// length d; like DotRows, RowMax panics on a mismatch rather than
// silently ignoring a ragged trailing partial row, which would leave the
// bound unsound for whatever the caller meant the tail to be. max must
// not alias flat.
func RowMax(flat []float64, d int, max []float64) {
	// The bound length check runs BEFORE the d == 0 early return, so a
	// caller passing a stale non-empty bound for a zero-dimensional matrix
	// panics instead of silently getting no widening.
	if len(max) != d {
		panic(fmt.Sprintf("geom: RowMax bound has %d components, want %d", len(max), d))
	}
	if d == 0 {
		if len(flat) != 0 {
			panic(fmt.Sprintf("geom: RowMax matrix has %d values with zero-width rows", len(flat)))
		}
		return
	}
	if len(flat)%d != 0 {
		panic(fmt.Sprintf("geom: RowMax matrix has %d values, not a multiple of %d", len(flat), d))
	}
	kern.RowMax(flat, d, max)
}
