package kern

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// trickyValues are the float64s most likely to expose an accumulation-
// order or comparison-direction divergence between a fast kernel and
// its scalar reference: signed zeros (0 + -0 = +0, so a folded bare
// product differs from an accumulated one), infinities (Inf - Inf =
// NaN orders matter), NaNs (comparisons all false; arithmetic
// propagates), subnormals (double rounding hazards), and magnitudes
// whose sums round differently under reassociation.
var trickyValues = []float64{
	0, math.Copysign(0, -1),
	1, -1, 0.5, -0.5,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1e-300, -1e-300, 1e300, -1e300,
	1 + math.Pow(2, -52), 1 - math.Pow(2, -53),
	3, 1.0 / 3.0, 0.1, -0.1,
}

// fillTricky fills dst from trickyValues and rng-perturbed mixes so
// every slice carries both special values and ordinary noise.
func fillTricky(dst []float64, rng *rand.Rand) {
	for i := range dst {
		switch rng.Intn(3) {
		case 0:
			dst[i] = trickyValues[rng.Intn(len(trickyValues))]
		case 1:
			dst[i] = rng.NormFloat64()
		default:
			dst[i] = math.Float64frombits(rng.Uint64())
		}
	}
}

// bitsEqual requires exact bit equality — signed zeros, infinities,
// and subnormals included — except that two NaNs always match: when
// both operands of a hardware add/multiply are NaN, x86 propagates
// whichever the compiler put first, and Go leaves that operand order
// unspecified, so payload bits may differ between code shapes even
// though NaN-ness itself (determined by the values, which follow the
// identical operation tree) cannot. See the package comment.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return -1, true
}

// TestDotRowsMatchesScalar pins the dispatcher bit-identical to the
// historical pair loop across every specialized width, the generic
// path, and row counts that exercise all block tails.
func TestDotRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 20; d++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257} {
			flat := make([]float64, n*d)
			w := make([]float64, d)
			for trial := 0; trial < 8; trial++ {
				fillTricky(flat, rng)
				fillTricky(w, rng)
				fast := make([]float64, n)
				ref := make([]float64, n)
				DotRows(flat, d, w, fast)
				DotRowsScalar(flat, d, w, ref)
				if i, ok := bitsEqual(fast, ref); !ok {
					t.Fatalf("d=%d n=%d trial=%d: row %d fast=%x scalar=%x",
						d, n, trial, i,
						math.Float64bits(fast[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
}

// TestPivotKernelsMatchScalar pins ScaleRow and SubScaled bit-identical
// to the historical elementwise loops, including the dst-longer-than-src
// shape the simplex z-row update uses.
func TestPivotKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100} {
		for trial := 0; trial < 16; trial++ {
			src := make([]float64, n)
			fillTricky(src, rng)
			f := trickyValues[rng.Intn(len(trickyValues))]

			fastRow := append([]float64(nil), src...)
			refRow := append([]float64(nil), src...)
			ScaleRow(fastRow, f)
			ScaleRowScalar(refRow, f)
			if i, ok := bitsEqual(fastRow, refRow); !ok {
				t.Fatalf("ScaleRow n=%d trial=%d: elem %d fast=%x scalar=%x",
					n, trial, i,
					math.Float64bits(fastRow[i]), math.Float64bits(refRow[i]))
			}

			dst := make([]float64, n+3) // longer than src: tail must stay put
			fillTricky(dst, rng)
			fastDst := append([]float64(nil), dst...)
			refDst := append([]float64(nil), dst...)
			SubScaled(fastDst, src, f)
			SubScaledScalar(refDst, src, f)
			if i, ok := bitsEqual(fastDst, refDst); !ok {
				t.Fatalf("SubScaled n=%d trial=%d: elem %d fast=%x scalar=%x",
					n, trial, i,
					math.Float64bits(fastDst[i]), math.Float64bits(refDst[i]))
			}
		}
	}
}

// decodeFloats turns fuzz bytes into a float64 slice of length n,
// cycling over the input so short seeds still produce full slices.
func decodeFloats(data []byte, n int) []float64 {
	out := make([]float64, n)
	if len(data) == 0 {
		return out
	}
	for i := range out {
		var buf [8]byte
		for j := 0; j < 8; j++ {
			buf[j] = data[(i*8+j)%len(data)]
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return out
}

// FuzzKernelDotRows differentially fuzzes the DotRows dispatcher
// against the scalar reference over arbitrary float bit patterns,
// widths, and row counts.
func FuzzKernelDotRows(f *testing.F) {
	f.Add([]byte{0x01, 0x02}, uint8(3), uint8(9))
	f.Add([]byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0x80}, uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, dRaw, nRaw uint8) {
		d := int(dRaw)%20 + 1
		n := int(nRaw) % 70
		vals := decodeFloats(data, n*d+d)
		flat, w := vals[:n*d], vals[n*d:]
		fast := make([]float64, n)
		ref := make([]float64, n)
		DotRows(flat, d, w, fast)
		DotRowsScalar(flat, d, w, ref)
		if i, ok := bitsEqual(fast, ref); !ok {
			t.Fatalf("d=%d n=%d: row %d fast=%x scalar=%x",
				d, n, i, math.Float64bits(fast[i]), math.Float64bits(ref[i]))
		}
	})
}

// FuzzKernelEliminate differentially fuzzes the pivot-row kernels
// (scale + subtract-scaled) against the scalar references.
func FuzzKernelEliminate(f *testing.F) {
	f.Add([]byte{0x01}, uint8(7), uint64(0x3ff0000000000000))
	f.Add([]byte{0xff}, uint8(12), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8, fBits uint64) {
		n := int(nRaw) % 100
		fac := math.Float64frombits(fBits)
		vals := decodeFloats(data, 2*n)
		src, dst := vals[:n], vals[n:]

		fastRow := append([]float64(nil), src...)
		refRow := append([]float64(nil), src...)
		ScaleRow(fastRow, fac)
		ScaleRowScalar(refRow, fac)
		if i, ok := bitsEqual(fastRow, refRow); !ok {
			t.Fatalf("ScaleRow n=%d: elem %d fast=%x scalar=%x",
				n, i, math.Float64bits(fastRow[i]), math.Float64bits(refRow[i]))
		}

		fastDst := append([]float64(nil), dst...)
		refDst := append([]float64(nil), dst...)
		SubScaled(fastDst, src, fac)
		SubScaledScalar(refDst, src, fac)
		if i, ok := bitsEqual(fastDst, refDst); !ok {
			t.Fatalf("SubScaled n=%d: elem %d fast=%x scalar=%x",
				n, i, math.Float64bits(fastDst[i]), math.Float64bits(refDst[i]))
		}
	})
}

// BenchmarkKernels covers the blocked kernels — DotRows across the
// widths the workloads use (3..5 specialized, 8 and 16 blocked) and two
// row scales, and pivot elimination across tableau widths; the
// .../scalar variants measure the historical loops for the speedup
// ratio quoted in EXPERIMENTS.md.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{3, 4, 5, 8, 16} {
		for _, rows := range []int{256, 4096} {
			flat := make([]float64, rows*d)
			w := make([]float64, d)
			out := make([]float64, rows)
			for i := range flat {
				flat[i] = rng.Float64()
			}
			for i := range w {
				w[i] = rng.Float64()
			}
			name := fmt.Sprintf("d=%d/rows=%d", d, rows)

			b.Run("DotRows/"+name, func(b *testing.B) {
				b.SetBytes(int64(rows * d * 8))
				for i := 0; i < b.N; i++ {
					DotRows(flat, d, w, out)
				}
			})
			b.Run("DotRows/"+name+"/scalar", func(b *testing.B) {
				b.SetBytes(int64(rows * d * 8))
				for i := 0; i < b.N; i++ {
					DotRowsScalar(flat, d, w, out)
				}
			})
		}
	}
	// Pivot elimination at tableau widths: one ScaleRow + rows SubScaled
	// per iteration, the shape of a whole simplex pivot.
	for _, width := range []int{16, 64, 256} {
		rows := 32
		tab := make([]float64, rows*width)
		for i := range tab {
			tab[i] = rng.NormFloat64()
		}
		pr := make([]float64, width)
		for i := range pr {
			pr[i] = rng.NormFloat64()
		}
		name := fmt.Sprintf("width=%d/rows=%d", width, rows)
		b.Run("Eliminate/"+name, func(b *testing.B) {
			b.SetBytes(int64(rows * width * 8))
			for i := 0; i < b.N; i++ {
				ScaleRow(pr, 1.0000001)
				for r := 0; r < rows; r++ {
					SubScaled(tab[r*width:(r+1)*width], pr, 0.5)
				}
			}
		})
		b.Run("Eliminate/"+name+"/scalar", func(b *testing.B) {
			b.SetBytes(int64(rows * width * 8))
			for i := 0; i < b.N; i++ {
				ScaleRowScalar(pr, 1.0000001)
				for r := 0; r < rows; r++ {
					SubScaledScalar(tab[r*width:(r+1)*width], pr, 0.5)
				}
			}
		})
	}
}
