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

// The shard-scaling tier: a larger user population (the regime sharding
// exists for) on the IND dataset, measured at Shards ∈ {1,2,4,8} with
// Workers=8. m = |U|/2 spreads the region boundary across shard boxes,
// which is the balance-relevant (and hardest) case for the decomposition.
const (
	jsonShardU       = 160
	jsonShardM       = jsonShardU / 2
	jsonShardWorkers = 8
)

var jsonShardMatrix = []int{1, 2, 4, 8}

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
	// Shards is the space-sharding factor (1 = the single-tree build;
	// legacy reports carry 0, which means the same). ShardCells is the
	// per-shard arrangement-cell count in shard-ID order — deterministic
	// for a fixed shard count, and the source of the balance gate.
	Shards     int   `json:"shards"`
	ShardCells []int `json:"shard_cells,omitempty"`
	Runs       int   `json:"runs"`

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
				Shards:    1,
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
	// Shard-scaling axis: the larger IND tier at Workers=8 across the
	// shard matrix. The Shards=1 row is the single-tree reference the
	// shard gates compare against (fresh vs fresh, so machine speed
	// divides out of the wall ratio).
	shardInst := cfg.instance("IND", "CL", jsonBenchP, jsonShardU, jsonBenchD, jsonBenchK, 101)
	for _, shards := range jsonShardMatrix {
		opts := core.Options{Workers: jsonShardWorkers, Shards: shards}
		res := benchResult{
			Dataset:   "IND",
			Products:  jsonBenchP,
			Users:     jsonShardU,
			Dim:       jsonBenchD,
			K:         jsonBenchK,
			M:         jsonShardM,
			Pruning:   true,
			WarmStart: true,
			Workers:   jsonShardWorkers,
			Shards:    shards,
			Runs:      jsonBenchRuns,
		}
		if err := measureAA(shardInst, jsonShardM, opts, &res); err != nil {
			return fmt.Errorf("shard tier shards=%d: %w", shards, err)
		}
		report.Results = append(report.Results, res)
		fmt.Printf("IND   |U|=%d shards=%d workers=%d  %8.3fs  %9d bytes/op  cells=%d prescreened=%d\n",
			jsonShardU, shards, jsonShardWorkers, res.WallSeconds, res.BytesPerOp,
			res.Stats.Cells, res.Stats.PrescreenedOut)
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
	// The shard gates compare rows of the fresh report against each
	// other, so they run on every -json invocation, baseline or not. The
	// shard wall floor keys off the CPU count the report itself records —
	// a committed fact, not whatever machine re-runs the check.
	if err := checkShardScaling(report, report.NumCPU); err != nil {
		return err
	}
	if baselinePath != "" {
		return checkBaseline(report, baselinePath)
	}
	return nil
}

// Shard-scaling gates. Every gate compares rows of the same fresh report
// (never the committed baseline), so machine speed divides out and the
// gates hold on any host:
//
//   - prescreen: every Shards>1 row must absorb a nonzero number of
//     halfspaces (PrescreenedOut > 0) — the band-bound prescreen going
//     silent means shard boxes stopped excluding any user boundary.
//   - balance: on the largest shard row, total cells / max per-shard
//     cells must stay >= shardBalanceFloor. This is the deterministic
//     upper-bound witness for parallel speedup: no schedule can beat it,
//     and a decomposition that admits >= 3x keeps it >= 3.
//   - allocation: the largest shard row's mean per-shard footprint
//     (BytesPerOp / Shards) must stay under shardAllocFraction of the
//     single-tree build's BytesPerOp — sharding must split the working
//     set, not replicate it.
//   - wall: on hosts with >= shardWallGateCPUs CPUs, the measured
//     speedup wall(Shards=1)/wall(largest) must reach
//     shardWallSpeedupMin. On smaller hosts there is no parallelism to
//     measure and the balance gate is the machine-independent form of
//     the same contract, so wall is reported but not enforced.
const (
	shardBalanceFloor   = 3.0
	shardAllocFraction  = 0.5
	shardWallSpeedupMin = 3.0
	shardWallGateCPUs   = 8
)

func checkShardScaling(report benchReport, numCPU int) error {
	rows := make(map[int]benchResult)
	for _, r := range report.Results {
		if r.Users == jsonShardU && r.Workers == jsonShardWorkers && r.Shards >= 1 {
			rows[r.Shards] = r
		}
	}
	var failures []string
	for _, s := range jsonShardMatrix {
		r, ok := rows[s]
		if !ok {
			failures = append(failures, fmt.Sprintf("shards=%d: row missing from report", s))
			continue
		}
		if s > 1 && r.Stats.PrescreenedOut == 0 {
			failures = append(failures, fmt.Sprintf(
				"shards=%d: prescreen absorbed no halfspaces", s))
		}
	}
	single, haveSingle := rows[1]
	topShards := jsonShardMatrix[len(jsonShardMatrix)-1]
	top, haveTop := rows[topShards]
	if haveTop {
		maxCells := 0
		for _, c := range top.ShardCells {
			if c > maxCells {
				maxCells = c
			}
		}
		if maxCells <= 0 {
			failures = append(failures, fmt.Sprintf(
				"shards=%d: no per-shard cell counts recorded", topShards))
		} else {
			balance := float64(top.Stats.Cells) / float64(maxCells)
			fmt.Printf("shard balance shards=%d: %d cells / %d max-shard = %.2f (floor %.1f)\n",
				topShards, top.Stats.Cells, maxCells, balance, shardBalanceFloor)
			if balance < shardBalanceFloor {
				failures = append(failures, fmt.Sprintf(
					"shards=%d: balance %.2f below floor %.1f (largest shard holds %d of %d cells)",
					topShards, balance, shardBalanceFloor, maxCells, top.Stats.Cells))
			}
		}
	}
	if haveSingle && haveTop {
		perShard := top.BytesPerOp / uint64(topShards)
		limit := uint64(shardAllocFraction * float64(single.BytesPerOp))
		fmt.Printf("shard alloc shards=%d: %d bytes/shard vs limit %d (%.0f%% of single-tree %d)\n",
			topShards, perShard, limit, shardAllocFraction*100, single.BytesPerOp)
		if perShard > limit {
			failures = append(failures, fmt.Sprintf(
				"shards=%d: per-shard footprint %d bytes exceeds %.0f%% of single-tree %d bytes",
				topShards, perShard, shardAllocFraction*100, single.BytesPerOp))
		}
		speedup := single.WallSeconds / top.WallSeconds
		if numCPU >= shardWallGateCPUs {
			fmt.Printf("shard wall shards=%d: %.2fx speedup over single tree (floor %.1fx)\n",
				topShards, speedup, shardWallSpeedupMin)
			if speedup < shardWallSpeedupMin {
				failures = append(failures, fmt.Sprintf(
					"shards=%d: wall speedup %.2fx below %.1fx on a %d-CPU host",
					topShards, speedup, shardWallSpeedupMin, numCPU))
			}
		} else {
			fmt.Printf("shard wall shards=%d: %.2fx measured on %d CPUs — not enforced below %d CPUs (balance gate stands in)\n",
				topShards, speedup, numCPU, shardWallGateCPUs)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("shard scaling gates failed:\n  %s", joinLines(failures))
	}
	fmt.Println("shard scaling check passed")
	return nil
}

// measureAA runs one warm-up execution (populating res.Stats, res.Sched,
// and res.ShardCells — all deterministic across runs) followed by
// jsonBenchRuns measured executions, recording best-of wall time and
// mean MemStats deltas.
func measureAA(inst *core.Instance, m int, opts core.Options, res *benchResult) error {
	reg, err := core.AA(inst, m, opts)
	if err != nil {
		return err
	}
	res.Stats = reg.Stats
	res.Stats.StealCount, res.Stats.MaxFrontier = 0, 0
	res.Sched = reg.Sched
	res.ShardCells = append([]int(nil), reg.ShardCells...)

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
