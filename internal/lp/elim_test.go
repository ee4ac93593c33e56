package lp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// oldWorkspacePivot is a verbatim copy of the scalar loops
// Workspace.pivot ran before the shared elimination kernel (pivot-row
// scale, per-row range elimination with the fac == 0 skip) — the
// reference the kernel path is pinned against. oldFeaserPivot is the
// same for Feaser.pivot, z-row elimination included, preserving its
// historically divergent indexed-loop style.
func oldWorkspacePivot(tab []float64, nCols, m, row, col int) {
	pr := tab[row*nCols : (row+1)*nCols]
	p := pr[col]
	inv := 1 / p
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		ri := tab[i*nCols : (i+1)*nCols]
		f := ri[col]
		if f == 0 {
			continue
		}
		for j, v := range pr {
			ri[j] -= f * v
		}
		ri[col] = 0
	}
}

func oldFeaserPivot(tab, z []float64, width, n, row, col int) {
	pr := tab[row*width : (row+1)*width]
	inv := 1 / pr[col]
	for j := 0; j < width; j++ {
		pr[j] *= inv
	}
	pr[col] = 1
	for i := 0; i < n; i++ {
		if i == row {
			continue
		}
		ri := tab[i*width : (i+1)*width]
		fac := ri[col]
		if fac == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			ri[j] -= fac * pr[j]
		}
		ri[col] = 0
	}
	fac := z[col]
	if fac != 0 {
		for j := 0; j < width; j++ {
			z[j] -= fac * pr[j]
		}
		z[col] = 0
	}
}

func tabEqualBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: elem %d got=%x want=%x", name, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestPivotMatchesHistoricalLoops pins the deduplicated elimination
// byte-identical to verbatim copies of the two old pivot loops, over tableaus mixing ordinary values with zeros
// (exercising the fac == 0 skip), across widths hitting the blocked
// kernels and their tails.
func TestPivotMatchesHistoricalLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := func(dst []float64) {
		for i := range dst {
			switch rng.Intn(4) {
			case 0:
				dst[i] = 0
			case 1:
				dst[i] = math.Copysign(0, -1)
			default:
				dst[i] = rng.NormFloat64()
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		width := 1 + rng.Intn(24)
		row := rng.Intn(m)
		col := rng.Intn(width)
		tab := make([]float64, m*width)
		fill(tab)
		if tab[row*width+col] == 0 {
			tab[row*width+col] = 1 + rng.Float64() // a real pivot element
		}
		z := make([]float64, width)
		fill(z)

		wantTab := append([]float64(nil), tab...)
		oldWorkspacePivot(wantTab, width, m, row, col)
		gotTab := append([]float64(nil), tab...)
		eliminate(gotTab, width, m, row, col)
		tabEqualBits(t, "workspace pivot", gotTab, wantTab)

		wantFTab := append([]float64(nil), tab...)
		wantZ := append([]float64(nil), z...)
		oldFeaserPivot(wantFTab, wantZ, width, m, row, col)
		gotFTab := append([]float64(nil), tab...)
		gotZ := append([]float64(nil), z...)
		eliminate(gotFTab, width, m, row, col)
		eliminateAux(gotZ, gotFTab[row*width:(row+1)*width], col)
		tabEqualBits(t, "feaser pivot tab", gotFTab, wantFTab)
		tabEqualBits(t, "feaser pivot z", gotZ, wantZ)
	}
}

// FuzzKernelPivotParity differentially fuzzes the shared elimination
// against the verbatim historical loops over arbitrary float bit
// patterns.
func FuzzKernelPivotParity(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03}, uint8(3), uint8(5), uint8(1), uint8(2))
	f.Add([]byte{0xff, 0x00, 0x80}, uint8(2), uint8(9), uint8(0), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, mRaw, widthRaw, rowRaw, colRaw uint8) {
		m := int(mRaw)%12 + 1
		width := int(widthRaw)%24 + 1
		row := int(rowRaw) % m
		col := int(colRaw) % width
		tab := make([]float64, m*width)
		z := make([]float64, width)
		if len(data) > 0 {
			for i := range tab {
				var buf [8]byte
				for j := 0; j < 8; j++ {
					buf[j] = data[(i*8+j)%len(data)]
				}
				tab[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
			for i := range z {
				var buf [8]byte
				for j := 0; j < 8; j++ {
					buf[j] = data[((len(tab)+i)*8+j)%len(data)]
				}
				z[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
		}

		wantTab := append([]float64(nil), tab...)
		wantZ := append([]float64(nil), z...)
		oldFeaserPivot(wantTab, wantZ, width, m, row, col)
		gotTab := append([]float64(nil), tab...)
		gotZ := append([]float64(nil), z...)
		eliminate(gotTab, width, m, row, col)
		eliminateAux(gotZ, gotTab[row*width:(row+1)*width], col)
		tabEqualBits(t, "tab", gotTab, wantTab)
		tabEqualBits(t, "z", gotZ, wantZ)
	})
}
