package lp

import "mir/internal/kern"

// This file is the single home of the Gauss-Jordan pivot elimination
// both simplex engines run: Workspace.pivot (the two-phase primal
// solver) and Feaser.pivot (the dual feasibility solver) were
// copy-paste divergent scalar loops before the kernel layer; they now
// share eliminate/eliminateAux, which run internal/kern's blocked row
// kernels. The historical loops survive only as test references
// (kern's scalar.go and this package's parity fuzzer).
//
// Bit-identity: the pivot-row normalization and the per-row
// subtract-scaled update are elementwise (no cross-element
// accumulation), so the blocked kernels are exact. The one transform
// that would NOT be exact — folding the pivot-row scale into the
// elimination factor, f*(inv*p_j) vs (f*inv)*p_j — is deliberately
// absent: the pivot row is scaled once, in place, and every
// elimination reads the already-scaled row, exactly as the historical
// loops did. The fac == 0 skip is likewise preserved (those whole-row
// passes are the dominant saving on sparse columns, and skipping them
// is exact: subtracting 0*pr is not a bit-level no-op on NaN/Inf rows,
// so the skip itself is part of the pinned historical semantics).

// eliminate performs the shared Gauss-Jordan pivot on tab (row-major,
// rows x stride): normalize the pivot row by 1/tab[row,col] and set
// its pivot column to exactly 1, then for every other row with a
// nonzero pivot-column factor subtract factor*pivotRow and zero its
// pivot column.
func eliminate(tab []float64, stride, rows, row, col int) {
	pr := tab[row*stride : (row+1)*stride]
	kern.ScaleRow(pr, 1/pr[col])
	pr[col] = 1
	for i := 0; i < rows; i++ {
		if i == row {
			continue
		}
		ri := tab[i*stride : (i+1)*stride]
		fac := ri[col]
		if fac == 0 {
			continue
		}
		kern.SubScaled(ri, pr, fac)
		ri[col] = 0
	}
}

// eliminateAux applies the same elimination to an auxiliary row — the
// reduced-cost row of either engine — against the already-scaled pivot
// row pr, preserving the historical fac == 0 skip. z must hold at
// least len(pr) values; only the first len(pr) are touched.
func eliminateAux(z, pr []float64, col int) {
	fac := z[col]
	if fac == 0 {
		return
	}
	kern.SubScaled(z, pr, fac)
	z[col] = 0
}
