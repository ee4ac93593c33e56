package mir

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section 6), at a reduced scale so `go test -bench=.` completes in
// minutes. The full series — with the paper's sweeps and the scaled
// cardinalities — are produced by `go run ./cmd/mirbench -fig <id>`;
// EXPERIMENTS.md records the measured trends against the paper's.

import (
	"fmt"
	"runtime"
	"testing"

	"mir/internal/geom"
	"mir/internal/topk"
)

// benchSizes keeps every benchmark on the same small footing.
const (
	benchP = 5000
	benchU = 80
	benchD = 3
	benchK = 10
)

func benchAnalyzer(b *testing.B, pd ProductDist, ud UserDist, nP, nU, d, k int, opts *Options) *Analyzer {
	b.Helper()
	ps := SynthProducts(pd, nP, d, 1)
	us := SynthUsers(ud, nU, d, k, 2)
	an, err := NewAnalyzer(ps, us, opts)
	if err != nil {
		b.Fatal(err)
	}
	return an
}

func runRegion(b *testing.B, an *Analyzer, m int) {
	b.Helper()
	b.ResetTimer()
	var pivots int64
	for i := 0; i < b.N; i++ {
		reg, err := an.ImpactRegion(m)
		if err != nil {
			b.Fatal(err)
		}
		pivots += reg.Stats().Pivots
	}
	// Simplex pivots are the deterministic cost metric behind the wall
	// clock: they expose the warm-start savings independent of machine
	// noise (BENCH_AA.json's warm/cold workers=1 rows, written by
	// `mirbench -json`, hold the cold-start comparison).
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// BenchmarkFig7TripAdvisorCaseStudy: the 2-D TA-like case study.
func BenchmarkFig7TripAdvisorCaseStudy(b *testing.B) {
	ps, us, err := TripAdvisorLikePair(300, 400, benchK, 1, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	an, err := NewAnalyzer(ps, us, nil)
	if err != nil {
		b.Fatal(err)
	}
	runRegion(b, an, 200)
}

// BenchmarkFig8AAvsBSL: AA and BSL on the TA-like workload (Figure 8).
func BenchmarkFig8AAvsBSL(b *testing.B) {
	ps, us, err := TripAdvisorLikePair(300, 60, benchK, 1, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []string{"AA", "BSL"} {
		b.Run(algo, func(b *testing.B) {
			opts := &Options{}
			if algo == "BSL" {
				// BSL is approximated by AA with every optimization off:
				// one-by-one insertion without grouping or batch tests.
				opts = &Options{
					DisableGrouping: true, DisableInnerGroupProcessing: true,
					Disable2DSpecialization: true,
				}
			}
			an, err := NewAnalyzer(ps, us, opts)
			if err != nil {
				b.Fatal(err)
			}
			runRegion(b, an, 30)
		})
	}
}

// BenchmarkFig9RealSets: the HOTEL/HOUSE/NBA stand-ins (Figure 9).
func BenchmarkFig9RealSets(b *testing.B) {
	for _, cfg := range []struct {
		name string
		d    int
		pd   ProductDist
	}{
		{"HOTEL-d4", 4, Correlated},
		{"HOUSE-d6", 6, Independent},
		{"NBA-d8", 8, Correlated},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			nU := benchU
			if cfg.d >= 6 {
				nU = 16 // higher d: the arrangement grows steeply
			}
			an := benchAnalyzer(b, cfg.pd, Clustered, benchP, nU, cfg.d, benchK, nil)
			runRegion(b, an, nU/2)
		})
	}
}

// BenchmarkFig10aProductDistribution: IND/COR/ANTI (Figure 10a).
func BenchmarkFig10aProductDistribution(b *testing.B) {
	for _, cfg := range []struct {
		name string
		pd   ProductDist
	}{{"IND", Independent}, {"COR", Correlated}, {"ANTI", AntiCorrelated}} {
		b.Run(cfg.name, func(b *testing.B) {
			an := benchAnalyzer(b, cfg.pd, Clustered, benchP, benchU, benchD, benchK, nil)
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkFig10bUserDistribution: CL vs UN users (Figure 10b).
func BenchmarkFig10bUserDistribution(b *testing.B) {
	for _, cfg := range []struct {
		name string
		ud   UserDist
	}{{"CL", Clustered}, {"UN", Uniform}} {
		b.Run(cfg.name, func(b *testing.B) {
			an := benchAnalyzer(b, Independent, cfg.ud, benchP, benchU, benchD, benchK, nil)
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkFig11VaryK (Figures 11a/11b).
func BenchmarkFig11VaryK(b *testing.B) {
	for _, k := range []int{1, 10, 40} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, benchP, benchU, benchD, k, nil)
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkFig12VaryD (Figures 12a/12b).
func BenchmarkFig12VaryD(b *testing.B) {
	for _, d := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, benchP, benchU/2, d, benchK, nil)
			runRegion(b, an, benchU/4)
		})
	}
}

// BenchmarkFig13Cardinalities (Figures 13a/13b).
func BenchmarkFig13Cardinalities(b *testing.B) {
	for _, nP := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("P=%d", nP), func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, nP, benchU/2, benchD, benchK, nil)
			runRegion(b, an, benchU/4)
		})
	}
	for _, nU := range []int{40, 120} {
		b.Run(fmt.Sprintf("U=%d", nU), func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, benchP, nU, benchD, benchK, nil)
			runRegion(b, an, nU/2)
		})
	}
}

// BenchmarkFig14CostOptimization: the CO adaptation (Figure 14; the YZZL
// baseline comparison runs in mirbench).
func BenchmarkFig14CostOptimization(b *testing.B) {
	an := benchAnalyzer(b, Independent, Clustered, benchP, benchU, benchD, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.CostOptimal(benchU/4, L2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15aImprovement: the IS adaptation (Figure 15a).
func BenchmarkFig15aImprovement(b *testing.B) {
	ps := SynthProducts(Independent, 2000, benchD, 1)
	us := SynthUsers(Clustered, 40, benchD, benchK, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Improve(ps, us, 7, 0.3, L2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15bBudgetedCO (Figure 15b).
func BenchmarkFig15bBudgetedCO(b *testing.B) {
	an := benchAnalyzer(b, Independent, Clustered, 2000, 40, benchD, benchK, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.BudgetedCostOptimal(1.0, L2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16Optimizations: each optimization on vs off (Figure 16).
func BenchmarkFig16Optimizations(b *testing.B) {
	variants := []struct {
		name string
		d    int
		opts *Options
	}{
		{"2d-special-on", 2, &Options{}},
		{"2d-special-off", 2, &Options{Disable2DSpecialization: true}},
		{"inner-group-on", 3, &Options{}},
		{"inner-group-off", 3, &Options{DisableInnerGroupProcessing: true}},
		{"fast-test-on", 3, &Options{}},
		{"fast-test-off", 3, &Options{DisableFastTests: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, benchP, benchU, v.d, benchK, v.opts)
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkFig17aGroupStrategy (Figure 17a).
func BenchmarkFig17aGroupStrategy(b *testing.B) {
	for _, v := range []struct {
		name string
		s    Strategy
	}{{"largest", LargestFirst}, {"smallest", SmallestFirst}, {"round-robin", RoundRobin}} {
		b.Run(v.name, func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, benchP, benchU, benchD, benchK, &Options{Strategy: v.s})
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkFig17bDiverseK (Figure 17b): per-user k values.
func BenchmarkFig17bDiverseK(b *testing.B) {
	ps := SynthProducts(Independent, benchP, benchD, 1)
	for _, v := range []struct {
		name string
		mk   func() []User
	}{
		{"fixed", func() []User { return SynthUsers(Clustered, benchU, benchD, benchK, 2) }},
		{"mixed", func() []User {
			us := SynthUsers(Clustered, benchU, benchD, benchK, 2)
			for i := range us {
				us[i].K = 1 + (i*7)%19 // deterministic spread over [1, 20)
			}
			return us
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			an, err := NewAnalyzer(ps, v.mk(), nil)
			if err != nil {
				b.Fatal(err)
			}
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkAllTopK compares the sequential and parallel all-top-k fan-out
// (Section 5.1 preprocessing) on the IND workload. The sub-benchmark names
// report the worker count; divide workers=1 time by workers=N time for the
// speedup.
func BenchmarkAllTopK(b *testing.B) {
	ps := SynthProducts(Independent, 50000, 4, 1)
	raw := SynthUsers(Clustered, 2000, 4, benchK, 2)
	gps := make([]geom.Vector, len(ps))
	for i, p := range ps {
		gps[i] = geom.Vector(p)
	}
	users := make([]topk.UserPref, len(raw))
	for i, u := range raw {
		users[i] = topk.UserPref{W: geom.Vector(u.Weights), K: u.K}
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topk.AllTopKWorkers(gps, users, w)
			}
		})
	}
}

// BenchmarkAAParallel sweeps a full ImpactRegion query across worker
// counts on the IND workload: 1 worker runs the historical sequential
// best-first loop, >1 workers run the task-parallel frontier scheduler.
// The answers are byte-identical at every count (see
// TestFrontierParallelByteIdentical); only the wall clock differs. The
// speedup curve is only meaningful up to runtime.NumCPU() — on fewer
// cores the extra workers just take turns.
func BenchmarkAAParallel(b *testing.B) {
	workerCounts := []int{1, 2, 4, 8}
	if max := runtime.GOMAXPROCS(0); max != 1 && max != 2 && max != 4 && max != 8 {
		workerCounts = append(workerCounts, max)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			an := benchAnalyzer(b, Independent, Clustered, benchP, benchU, benchD, benchK,
				&Options{Workers: w})
			runRegion(b, an, benchU/2)
		})
	}
}

// BenchmarkPreprocessing: the all-top-k step (grouping input; Section 5.1).
func BenchmarkPreprocessing(b *testing.B) {
	ps := SynthProducts(Independent, 100000, 4, 1)
	us := SynthUsers(Clustered, 1000, 4, benchK, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAnalyzer(ps, us, nil); err != nil {
			b.Fatal(err)
		}
	}
}
