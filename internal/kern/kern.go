// Package kern holds the numeric kernels behind the engine's inner
// loops: batched weight-vector-times-row scoring (the top-k index), the
// componentwise row maxima that bound the index's blocks,
// and simplex pivot row elimination (the LP substrate). It is a leaf
// package — no imports beyond the standard library — so both
// internal/geom and internal/lp can sit on top of it.
//
// # Bit-identity contract
//
// Every blocked kernel in this package (DotRows, ScaleRow, SubScaled)
// reproduces its scalar reference (the *Scalar twin, a verbatim copy of
// the historical loop) bit for bit on every input — infinities,
// subnormals, and signed zeros included. The single exception is NaN
// payload bits: when both operands of a hardware add or multiply are
// NaNs, x86 propagates whichever operand the compiler scheduled first,
// and Go leaves that order unspecified — so two code shapes computing
// the identical operation tree can return NaNs with different payloads.
// NaN-ness itself is value-determined and therefore identical (the
// differential fuzzers pin exact bits for every non-NaN result and
// NaN ⇔ NaN otherwise), and the engine's finite-data paths never
// produce NaNs. The engine's determinism guarantees rest on this:
// regions, arrangements, and all algorithmic stats must be
// byte-identical to what the historical scalar loops computed, so a
// kernel may only reorganize work that IEEE 754 arithmetic is
// indifferent to:
//
//   - Dot products keep the exact association order of the scalar
//     kernel: the same multiplication pairs, accumulated into the same
//     four-way-unrolled partial sums s0..s3 (stride-4 lanes, remainder
//     into s0, each starting from +0 so the first accumulation is
//     0 + w·x, not a bare product — the two differ on a -0 product),
//     folded as (s0+s1)+(s2+s3). Blocking happens only ACROSS rows:
//     processing four rows per trip changes instruction interleaving,
//     never any row's own accumulation tree.
//   - Pivot row updates (scale, subtract-scaled) are elementwise with
//     no cross-element accumulation, so unrolling is trivially exact.
//     What would NOT be exact is folding the pivot-row scale into the
//     elimination factor (f*(inv*p_j) vs (f*inv)*p_j round
//     differently), which is why the elimination kernel takes the
//     already-scaled pivot row instead of fusing the multiply.
//
// RowMax is the one loop without a blocked form: it is the historical
// row-major loop itself, one strictly-greater comparison per element,
// and runs only while the top-k index is built.
//
// # Aliasing
//
// The fast kernels hoist the weight vector into locals once per call,
// which is only equivalent to the scalar reference when the output does
// not alias the weights. No caller in this repository aliases them; the
// contract is documented on each kernel.
//
// # Dispatch
//
// DotRows dispatches once per call (per matrix, not per row) on the
// column count, with dedicated fully-unrolled variants for the
// d ∈ {3, 4, 5, 8} the workloads use and a 4-row-blocked generic path
// for the rest. The differential fuzzers in this package (FuzzKernel*)
// pin fast-vs-scalar byte identity over arbitrary float bit patterns;
// see also lp's pivot parity fuzzer.
package kern

// DotRows computes out[r] = w · flat[r*d : (r+1)*d] for every r in
// [0, len(out)), bit-identical to DotRowsScalar. It assumes validated
// inputs: len(w) == d >= 1 and len(flat) >= len(out)*d (internal/geom
// wraps it with the panicking checks). out must not alias w.
func DotRows(flat []float64, d int, w, out []float64) {
	switch d {
	case 3:
		dotRows3(flat, w, out)
	case 4:
		dotRows4(flat, w, out)
	case 5:
		dotRows5(flat, w, out)
	case 8:
		dotRows8(flat, w, out)
	default:
		dotRowsBlocked(flat, d, w, out)
	}
}

// dot1 accumulates one stride-4 remainder term the way the scalar
// kernel does: into the s0 lane.
//
// The dotN helpers below mirror the scalar accumulation tree exactly —
// var-declared lanes starting at +0, `+=` per multiplication pair in
// stride order, (s0+s1)+(s2+s3) fold — and are small enough for the
// compiler to inline into the row loops.

func dot3(w0, w1, w2, x0, x1, x2 float64) float64 {
	var s0, s1, s2, s3 float64
	s0 += w0 * x0
	s0 += w1 * x1
	s0 += w2 * x2
	return (s0 + s1) + (s2 + s3)
}

func dot4(w0, w1, w2, w3, x0, x1, x2, x3 float64) float64 {
	var s0, s1, s2, s3 float64
	s0 += w0 * x0
	s1 += w1 * x1
	s2 += w2 * x2
	s3 += w3 * x3
	return (s0 + s1) + (s2 + s3)
}

func dot5(w0, w1, w2, w3, w4, x0, x1, x2, x3, x4 float64) float64 {
	var s0, s1, s2, s3 float64
	s0 += w0 * x0
	s1 += w1 * x1
	s2 += w2 * x2
	s3 += w3 * x3
	s0 += w4 * x4 // remainder lane, after the blocked quad like the scalar loop
	return (s0 + s1) + (s2 + s3)
}

func dot8(w0, w1, w2, w3, w4, w5, w6, w7, x0, x1, x2, x3, x4, x5, x6, x7 float64) float64 {
	var s0, s1, s2, s3 float64
	s0 += w0 * x0
	s1 += w1 * x1
	s2 += w2 * x2
	s3 += w3 * x3
	s0 += w4 * x4
	s1 += w5 * x5
	s2 += w6 * x6
	s3 += w7 * x7
	return (s0 + s1) + (s2 + s3)
}

func dotRows3(flat, w, out []float64) {
	w0, w1, w2 := w[0], w[1], w[2]
	n := len(out)
	r := 0
	for ; r+4 <= n; r += 4 {
		f := flat[r*3 : r*3+12]
		o := out[r : r+4]
		o[0] = dot3(w0, w1, w2, f[0], f[1], f[2])
		o[1] = dot3(w0, w1, w2, f[3], f[4], f[5])
		o[2] = dot3(w0, w1, w2, f[6], f[7], f[8])
		o[3] = dot3(w0, w1, w2, f[9], f[10], f[11])
	}
	for ; r < n; r++ {
		f := flat[r*3 : r*3+3]
		out[r] = dot3(w0, w1, w2, f[0], f[1], f[2])
	}
}

func dotRows4(flat, w, out []float64) {
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	n := len(out)
	r := 0
	for ; r+4 <= n; r += 4 {
		f := flat[r*4 : r*4+16]
		o := out[r : r+4]
		o[0] = dot4(w0, w1, w2, w3, f[0], f[1], f[2], f[3])
		o[1] = dot4(w0, w1, w2, w3, f[4], f[5], f[6], f[7])
		o[2] = dot4(w0, w1, w2, w3, f[8], f[9], f[10], f[11])
		o[3] = dot4(w0, w1, w2, w3, f[12], f[13], f[14], f[15])
	}
	for ; r < n; r++ {
		f := flat[r*4 : r*4+4]
		out[r] = dot4(w0, w1, w2, w3, f[0], f[1], f[2], f[3])
	}
}

func dotRows5(flat, w, out []float64) {
	w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
	n := len(out)
	r := 0
	for ; r+4 <= n; r += 4 {
		f := flat[r*5 : r*5+20]
		o := out[r : r+4]
		o[0] = dot5(w0, w1, w2, w3, w4, f[0], f[1], f[2], f[3], f[4])
		o[1] = dot5(w0, w1, w2, w3, w4, f[5], f[6], f[7], f[8], f[9])
		o[2] = dot5(w0, w1, w2, w3, w4, f[10], f[11], f[12], f[13], f[14])
		o[3] = dot5(w0, w1, w2, w3, w4, f[15], f[16], f[17], f[18], f[19])
	}
	for ; r < n; r++ {
		f := flat[r*5 : r*5+5]
		out[r] = dot5(w0, w1, w2, w3, w4, f[0], f[1], f[2], f[3], f[4])
	}
}

func dotRows8(flat, w, out []float64) {
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	w4, w5, w6, w7 := w[4], w[5], w[6], w[7]
	n := len(out)
	r := 0
	for ; r+2 <= n; r += 2 {
		f := flat[r*8 : r*8+16]
		o := out[r : r+2]
		o[0] = dot8(w0, w1, w2, w3, w4, w5, w6, w7,
			f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7])
		o[1] = dot8(w0, w1, w2, w3, w4, w5, w6, w7,
			f[8], f[9], f[10], f[11], f[12], f[13], f[14], f[15])
	}
	if r < n {
		f := flat[r*8 : r*8+8]
		out[r] = dot8(w0, w1, w2, w3, w4, w5, w6, w7,
			f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7])
	}
}

// dotRowsBlocked is the generic-width fast path: four rows per trip,
// each keeping the scalar's four-lane accumulation, with the weight
// quad loaded once per stride for all four rows.
func dotRowsBlocked(flat []float64, d int, w, out []float64) {
	n := len(out)
	r := 0
	for ; r+4 <= n; r += 4 {
		f0 := flat[r*d : r*d+d : r*d+d]
		f1 := flat[(r+1)*d : (r+1)*d+d : (r+1)*d+d]
		f2 := flat[(r+2)*d : (r+2)*d+d : (r+2)*d+d]
		f3 := flat[(r+3)*d : (r+3)*d+d : (r+3)*d+d]
		var a0, a1, a2, a3 float64
		var b0, b1, b2, b3 float64
		var c0, c1, c2, c3 float64
		var e0, e1, e2, e3 float64
		i := 0
		for ; i+4 <= d; i += 4 {
			w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
			a0 += w0 * f0[i]
			a1 += w1 * f0[i+1]
			a2 += w2 * f0[i+2]
			a3 += w3 * f0[i+3]
			b0 += w0 * f1[i]
			b1 += w1 * f1[i+1]
			b2 += w2 * f1[i+2]
			b3 += w3 * f1[i+3]
			c0 += w0 * f2[i]
			c1 += w1 * f2[i+1]
			c2 += w2 * f2[i+2]
			c3 += w3 * f2[i+3]
			e0 += w0 * f3[i]
			e1 += w1 * f3[i+1]
			e2 += w2 * f3[i+2]
			e3 += w3 * f3[i+3]
		}
		for ; i < d; i++ {
			wi := w[i]
			a0 += wi * f0[i]
			b0 += wi * f1[i]
			c0 += wi * f2[i]
			e0 += wi * f3[i]
		}
		o := out[r : r+4]
		o[0] = (a0 + a1) + (a2 + a3)
		o[1] = (b0 + b1) + (b2 + b3)
		o[2] = (c0 + c1) + (c2 + c3)
		o[3] = (e0 + e1) + (e2 + e3)
	}
	for ; r < n; r++ {
		out[r] = dotScalar(w, flat[r*d:r*d+d])
	}
}

// RowMax widens max (length d >= 1) to the componentwise maximum of
// itself and the rows of flat (len a multiple of d): one strictly-greater
// comparison per element, in row order. max must not alias flat.
func RowMax(flat []float64, d int, max []float64) {
	for off := 0; off+d <= len(flat); off += d {
		row := flat[off : off+d : off+d]
		for j, x := range row {
			if x > max[j] {
				max[j] = x
			}
		}
	}
}

// ScaleRow multiplies every element of row by inv in place: the pivot
// normalization of a simplex tableau row. Elementwise, so the 4-wide
// unroll is trivially bit-identical to ScaleRowScalar.
func ScaleRow(row []float64, inv float64) {
	i := 0
	for ; i+4 <= len(row); i += 4 {
		r := row[i : i+4 : i+4]
		r[0] *= inv
		r[1] *= inv
		r[2] *= inv
		r[3] *= inv
	}
	for ; i < len(row); i++ {
		row[i] *= inv
	}
}

// SubScaled subtracts f times src from dst elementwise over
// len(src) entries: the simplex row elimination (an axpy). dst must
// hold at least len(src) values and not overlap src. Elementwise, so
// the 4-wide unroll is trivially bit-identical to SubScaledScalar.
// The pivot-row scale is deliberately NOT folded into f — see the
// package comment.
func SubScaled(dst, src []float64, f float64) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] -= f * s[0]
		d[1] -= f * s[1]
		d[2] -= f * s[2]
		d[3] -= f * s[3]
	}
	for ; i < len(src); i++ {
		dst[i] -= f * src[i]
	}
}
