package kern

// This file holds the scalar reference kernels: verbatim copies of the
// historical loops the fast paths replaced (geom.DotRows as first
// written for the top-k index, geom's dot, and the simplex pivot
// loops). The engine never runs them; they are what the differential
// tests, fuzzers, benchmarks and the scan speed gate in this package
// compare the fast kernels against — so they must never be "improved";
// any change here moves the bit-identity anchor itself.

// dotScalar is the four-way-unrolled inner-product kernel (verbatim
// geom.dot): stride-4 lanes s0..s3, remainder into s0, folded as
// (s0+s1)+(s2+s3).
func dotScalar(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotRowsScalar is the historical DotRows loop: rows in pairs, two
// independent accumulator sets, odd row via dotScalar. Same validated-
// input assumptions as DotRows (d >= 1, len(w) == d,
// len(flat) >= len(out)*d).
func DotRowsScalar(flat []float64, d int, w, out []float64) {
	n := len(out)
	r := 0
	for ; r+2 <= n; r += 2 {
		a := flat[r*d : r*d+d : r*d+d]
		b := flat[(r+1)*d : (r+1)*d+d : (r+1)*d+d]
		var a0, a1, a2, a3 float64
		var b0, b1, b2, b3 float64
		i := 0
		for ; i+4 <= d; i += 4 {
			a0 += w[i] * a[i]
			a1 += w[i+1] * a[i+1]
			a2 += w[i+2] * a[i+2]
			a3 += w[i+3] * a[i+3]
			b0 += w[i] * b[i]
			b1 += w[i+1] * b[i+1]
			b2 += w[i+2] * b[i+2]
			b3 += w[i+3] * b[i+3]
		}
		for ; i < d; i++ {
			a0 += w[i] * a[i]
			b0 += w[i] * b[i]
		}
		out[r] = (a0 + a1) + (a2 + a3)
		out[r+1] = (b0 + b1) + (b2 + b3)
	}
	if r < n {
		out[r] = dotScalar(w, flat[r*d:r*d+d])
	}
}

// ScaleRowScalar is the historical pivot-row normalization loop
// (Workspace.pivot / Feaser.pivot): row[j] *= inv one element at a
// time.
func ScaleRowScalar(row []float64, inv float64) {
	for j := range row {
		row[j] *= inv
	}
}

// SubScaledScalar is the historical row-elimination loop:
// dst[j] -= f*src[j] over the first len(src) elements, one at a time.
func SubScaledScalar(dst, src []float64, f float64) {
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] -= f * v
	}
}
