//go:build !race

package kern

import (
	"math/rand"
	"testing"
	"time"
)

// TestKernelScanSpeedup is the kernels' speed gate: scoring a fixed
// 20,000-row product matrix against 64 weight vectors through DotRows
// must beat the scalar loop it reproduces, DotRowsScalar, by at least
// minScanSpeedup in aggregate over d=3..5. Both sides run the identical
// loop in one process, interleaved run by run, and each keeps its best of
// scanRuns, so machine speed and background load divide out. Race
// builds skip the file: instrumentation swamps the kernel's lead.
func TestKernelScanSpeedup(t *testing.T) {
	const (
		rows, panel    = 20_000, 64
		scanRuns       = 7
		minScanSpeedup = 2.0
	)
	rng := rand.New(rand.NewSource(5))
	var fastTotal, scalarTotal time.Duration
	for d := 3; d <= 5; d++ {
		flat := make([]float64, rows*d)
		for i := range flat {
			flat[i] = rng.Float64()
		}
		ws := make([][]float64, panel)
		for i := range ws {
			ws[i] = make([]float64, d)
			for j := range ws[i] {
				ws[i][j] = rng.Float64()
			}
		}
		out := make([]float64, rows)
		scan := func(dot func(flat []float64, d int, w, out []float64)) time.Duration {
			start := time.Now()
			for _, w := range ws {
				dot(flat, d, w, out)
			}
			return time.Since(start)
		}
		fast, scalar := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < scanRuns; r++ {
			fast = min(fast, scan(DotRows))
			scalar = min(scalar, scan(DotRowsScalar))
		}
		t.Logf("d=%d: kernel %v, scalar %v, %.2fx", d, fast, scalar, float64(scalar)/float64(fast))
		fastTotal += fast
		scalarTotal += scalar
	}
	speedup := float64(scalarTotal) / float64(fastTotal)
	t.Logf("aggregate: %.2fx", speedup)
	if speedup < minScanSpeedup {
		t.Errorf("aggregate: scalar/kernel %.2fx (kernel %v, scalar %v), floor %.1fx",
			speedup, fastTotal, scalarTotal, minScanSpeedup)
	}
}
