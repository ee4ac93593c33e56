package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mir/internal/core"
)

// The -json mode freezes the AA benchmark of bench_test.go into a
// machine-readable artifact: per product distribution (IND/COR/ANTI),
// pruning setting, and worker count, the wall time, allocation profile,
// the arrangement's LP-call counters, and (at workers > 1) the frontier
// scheduler's execution profile. CI regenerates the file on every run and
// uploads it, so performance regressions show up as diffs against the
// committed BENCH_AA.json rather than as anecdotes; the workers=1 rows
// additionally gate CI through -baseline (see checkBaseline).
//
// The workload matches the in-repo Go benchmarks (BenchmarkAAParallel):
// |P|=5000, |U|=80 clustered users, d=3, k=10, m=|U|/2. The matrix runs
// workers=1 with pruning on and off and with warm-started LPs on and off
// (the deterministic reference rows; the warm/cold pair measures the
// pivot reduction of basis reuse), then workers=2 and 4 with everything
// on (the scaling rows). Only the seed is taken from the command line.
const (
	jsonBenchP    = 5000
	jsonBenchU    = 80
	jsonBenchD    = 3
	jsonBenchK    = 10
	jsonBenchRuns = 3
)

// benchResult is one (dataset, pruning, workers) cell of the benchmark
// matrix.
type benchResult struct {
	Dataset  string `json:"dataset"`
	Products int    `json:"products"`
	Users    int    `json:"users"`
	Dim      int    `json:"dim"`
	K        int    `json:"k"`
	M        int    `json:"m"`
	Pruning  bool   `json:"pruning"`
	// WarmStart records whether LP solves re-entered parent-cell bases;
	// the warm/cold workers=1 pair differs only in the pivot counters.
	WarmStart bool `json:"warm_start"`
	Workers   int  `json:"workers"`
	Runs      int  `json:"runs"`

	// WallSeconds is the fastest of Runs measured executions (the standard
	// benchmarking convention: minimum wall time is the least noisy
	// estimator on a shared machine).
	WallSeconds float64 `json:"wall_seconds"`
	// AllocsPerOp and BytesPerOp are runtime.MemStats deltas (Mallocs,
	// TotalAlloc) averaged over the measured runs, matching the semantics
	// of testing.B's allocs/op and B/op.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`

	// Stats carries the algorithm counters, including the LP-call numbers:
	// ContainmentTests (classification feasibility solves), HullTests
	// (convex-hull membership solves), and PruneLPTests / PrunedRows from
	// split-time redundancy elimination. Every recorded counter is
	// deterministic across worker counts; the schedule-sensitive
	// StealCount and MaxFrontier are zeroed here and reported under Sched.
	Stats core.Stats `json:"stats"`

	// Sched is the frontier scheduler's execution profile (steal traffic,
	// peak frontier width, per-worker cell loads) from the warm-up run.
	// Present only at Workers > 1; its numbers vary run to run — the
	// scheduler promises identical results, not identical schedules.
	Sched *core.SchedStats `json:"sched,omitempty"`
}

// benchReport is the top-level BENCH_AA.json document.
type benchReport struct {
	Command string `json:"command"`
	hostMeta
	Seed    int64         `json:"seed"`
	Results []benchResult `json:"results"`
}

// jsonBenchMatrix is the (pruning, warm-start, workers) grid measured
// per dataset. The {pruning, cold, 1} row is the warm-start ablation
// reference: its Stats differ from {pruning, warm, 1} only in the LP
// effort counters.
var jsonBenchMatrix = []struct {
	pruning bool
	warm    bool
	workers int
}{
	{true, true, 1},
	{true, false, 1},
	{false, true, 1},
	{true, true, 2},
	{true, true, 4},
}

// runJSONBench measures the AA matrix and writes the report to path. When
// baselinePath is non-empty the fresh report is then gated against the
// committed reference (see checkBaseline) and an error is returned on
// regression.
func runJSONBench(cfg config, path, baselinePath string) error {
	report := benchReport{
		Command:  "mirbench -json",
		hostMeta: currentHost(),
		Seed:     cfg.seed,
	}
	m := jsonBenchU / 2
	for _, dataset := range []string{"IND", "COR", "ANTI"} {
		inst := cfg.instance(dataset, "CL", jsonBenchP, jsonBenchU, jsonBenchD, jsonBenchK, 101)
		for _, cell := range jsonBenchMatrix {
			opts := core.Options{
				Workers:          cell.workers,
				DisablePruning:   !cell.pruning,
				DisableWarmStart: !cell.warm,
			}
			res := benchResult{
				Dataset:   dataset,
				Products:  jsonBenchP,
				Users:     jsonBenchU,
				Dim:       jsonBenchD,
				K:         jsonBenchK,
				M:         m,
				Pruning:   cell.pruning,
				WarmStart: cell.warm,
				Workers:   cell.workers,
				Runs:      jsonBenchRuns,
			}
			if err := measureAA(inst, m, opts, &res); err != nil {
				return fmt.Errorf("%s pruning=%v warm=%v workers=%d: %w",
					dataset, cell.pruning, cell.warm, cell.workers, err)
			}
			report.Results = append(report.Results, res)
			fmt.Printf("%-5s pruning=%-5v warm=%-5v workers=%d  %8.3fs  %9d allocs/op  %9d pivots/op  %6d steals\n",
				dataset, cell.pruning, cell.warm, cell.workers, res.WallSeconds, res.AllocsPerOp,
				res.Stats.Pivots, schedSteals(res.Sched))
		}
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if baselinePath != "" {
		return checkBaseline(report, baselinePath)
	}
	return nil
}

// measureAA runs one warm-up execution (populating res.Stats and
// res.Sched) followed by jsonBenchRuns measured executions, recording
// best-of wall time and mean MemStats deltas.
func measureAA(inst *core.Instance, m int, opts core.Options, res *benchResult) error {
	reg, err := core.AA(inst, m, opts)
	if err != nil {
		return err
	}
	res.Stats = reg.Stats
	res.Stats.StealCount, res.Stats.MaxFrontier = 0, 0
	res.Sched = reg.Sched

	var allocs, bytes uint64
	best := -1.0
	var ms0, ms1 runtime.MemStats
	for r := 0; r < jsonBenchRuns; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if _, err := core.AA(inst, m, opts); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		if best < 0 || wall < best {
			best = wall
		}
	}
	res.WallSeconds = best
	res.AllocsPerOp = allocs / jsonBenchRuns
	res.BytesPerOp = bytes / jsonBenchRuns
	return nil
}

func schedSteals(s *core.SchedStats) int {
	if s == nil {
		return 0
	}
	return s.Steals
}

// allocRegressionTolerance is the allowed growth of workers=1 allocs/op
// over the committed baseline before checkBaseline fails: allocation
// counts at one worker are deterministic, so anything past noise is a
// real regression (a lost pooled buffer, a reintroduced per-cell clone).
// pivotRegressionTolerance plays the same role for the simplex pivot
// counters: workers=1 pivot counts are exactly reproducible for a fixed
// configuration, so a >10% jump means warm starts stopped landing (stale
// keys, broken basis handoff) or a solver change made the search walk.
const (
	allocRegressionTolerance = 1.10
	pivotRegressionTolerance = 1.10
)

// checkBaseline compares the fresh report's workers=1 rows against the
// committed BENCH_AA.json and fails on an allocs/op or pivots/op
// regression beyond the tolerances above. Only the single-worker rows
// gate: their counts are exactly reproducible, while multi-worker rows
// jitter with the schedule (per-worker scratch grows with steal traffic).
// Wall times never gate — CI machines are too noisy for that.
func checkBaseline(fresh benchReport, baselinePath string) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	type key struct {
		dataset string
		pruning bool
		warm    bool
	}
	type refRow struct {
		allocs uint64
		pivots int64
	}
	ref := make(map[key]refRow)
	for _, r := range base.Results {
		// Reports written before the workers axis existed carry Workers=0;
		// those rows were measured at one worker. Reports written before the
		// warm-start axis carry WarmStart=false on every row.
		if r.Workers == 1 || r.Workers == 0 {
			ref[key{r.Dataset, r.Pruning, r.WarmStart}] = refRow{r.AllocsPerOp, r.Stats.Pivots}
		}
	}
	if len(ref) == 0 {
		return fmt.Errorf("baseline %s: no workers=1 rows to compare against", baselinePath)
	}
	var failures []string
	for _, r := range fresh.Results {
		if r.Workers != 1 {
			continue
		}
		want, ok := ref[key{r.Dataset, r.Pruning, r.WarmStart}]
		if !ok && r.WarmStart {
			// Pre-warm-start baseline: its rows are cold and unlabeled, and
			// still gate the allocation counts of today's warm rows.
			want, ok = ref[key{r.Dataset, r.Pruning, false}]
		}
		if !ok {
			fmt.Printf("baseline: no reference for %s pruning=%v warm=%v; skipping\n",
				r.Dataset, r.Pruning, r.WarmStart)
			continue
		}
		limit := uint64(float64(want.allocs) * allocRegressionTolerance)
		status := "ok"
		if r.AllocsPerOp > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s pruning=%v warm=%v: %d allocs/op vs baseline %d (limit %d)",
				r.Dataset, r.Pruning, r.WarmStart, r.AllocsPerOp, want.allocs, limit))
		}
		// Pivot gate: skipped when the baseline predates the pivot counters
		// (its rows report zero pivots) or records a different warm setting.
		pivotLimit := int64(float64(want.pivots) * pivotRegressionTolerance)
		if want.pivots > 0 && r.Stats.Pivots > pivotLimit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s pruning=%v warm=%v: %d pivots/op vs baseline %d (limit %d)",
				r.Dataset, r.Pruning, r.WarmStart, r.Stats.Pivots, want.pivots, pivotLimit))
		}
		fmt.Printf("baseline %-4s %-5s pruning=%-5v warm=%-5v  %9d allocs/op vs %9d  %9d pivots/op vs %9d\n",
			status, r.Dataset, r.Pruning, r.WarmStart, r.AllocsPerOp, want.allocs,
			r.Stats.Pivots, want.pivots)
	}
	if len(failures) > 0 {
		return fmt.Errorf("workers=1 counters regressed beyond tolerance:\n  %s",
			joinLines(failures))
	}
	fmt.Println("baseline check passed")
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
