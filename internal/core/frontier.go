package core

import (
	"context"
	"runtime/pprof"

	"mir/internal/celltree"
	"mir/internal/par"
)

// SchedStats describes the frontier scheduler's execution: how wide the
// frontier got, how work moved between workers, and how the cell load
// distributed. Every field except Workers is timing-dependent — it varies
// run to run and is explicitly excluded from the determinism contract the
// computed region and the algorithmic Stats counters obey. Accumulated
// across drains for maintained (incremental) runs.
type SchedStats struct {
	// Workers is the frontier's worker-goroutine count.
	Workers int
	// Steals counts successful steal operations.
	Steals int
	// MaxFrontier is the high-water mark of in-flight cells.
	MaxFrontier int
	// PerWorkerCells[i] is the number of cells worker i processed.
	PerWorkerCells []int
}

// drain processes every staged cell until the heap is empty. modeMIR runs
// with Workers > 1 go through the task-parallel frontier: cell processing
// commutes there (see aaWorker.processCell), so concurrent subtrees yield
// the identical arrangement. The sequential best-first loop is kept for
//
//   - modeMaxCov / modeMinCost: their pruning reads and writes run-global
//     incumbents (bestCov, bestCost), so correctness — not just speed —
//     depends on the globally ordered traversal;
//   - RoundRobinGroup: the ablation strategy advances a run-global cursor,
//     whose sequence would depend on scheduling.
func (r *aaRun) drain() {
	if w := r.workers(); w > 1 && r.mode == modeMIR && r.opts.GroupChoice != RoundRobinGroup {
		r.runFrontier(w)
		return
	}
	r.loop()
}

// runFrontier drains the staged heap through the work-stealing frontier
// scheduler: the staged cells seed per-worker priority queues, and each
// worker processes cells — pushing the resulting undecided leaves onto its
// own queue — until no cell is left anywhere. Each worker owns an
// aaWorker (scratch + tree shard + stats accumulator) for the duration;
// shards and counters merge by summation after the join, so the totals
// equal the sequential run's for every worker count.
func (r *aaRun) runFrontier(workers int) {
	var (
		seeds []*celltree.Cell
		pris  []float64
	)
	pprof.Do(context.Background(), pprof.Labels("mir_phase", "seed"), func(context.Context) {
		seeds = make([]*celltree.Cell, 0, r.heap.Len())
		pris = make([]float64, 0, r.heap.Len())
		r.heap.Drain(func(c *celltree.Cell, pri float64) {
			seeds = append(seeds, c)
			pris = append(pris, pri)
		})
	})
	if len(seeds) == 0 {
		return
	}
	ws := make([]*aaWorker, workers)
	for i := range ws {
		ws[i] = &aaWorker{r: r, sh: r.tr.NewShard(), st: &Stats{}}
	}
	fs := par.RunFrontier(workers, seeds, pris, func(fw *par.FrontierWorker[*celltree.Cell], c *celltree.Cell) {
		ws[fw.ID()].processCell(c, fw.Push)
	})
	for _, w := range ws {
		r.tr.AbsorbShard(w.sh)
		r.st.mergeWorker(w.st)
	}
	r.recordSched(fs)
}

// recordSched folds one frontier execution into the run's scheduler
// counters, accumulating across the multiple drains of a maintained run.
func (r *aaRun) recordSched(fs par.FrontierStats) {
	r.st.StealCount += fs.Steals
	if fs.MaxPending > r.st.MaxFrontier {
		r.st.MaxFrontier = fs.MaxPending
	}
	if r.sched == nil {
		r.sched = &SchedStats{Workers: fs.Workers, PerWorkerCells: make([]int, fs.Workers)}
	}
	r.sched.Steals += fs.Steals
	if fs.MaxPending > r.sched.MaxFrontier {
		r.sched.MaxFrontier = fs.MaxPending
	}
	for i, n := range fs.PerWorker {
		if i < len(r.sched.PerWorkerCells) {
			r.sched.PerWorkerCells[i] += n
		}
	}
}

// region exports the run's current region together with the scheduler
// stats (nil when every drain ran sequentially).
func (r *aaRun) region() *Region {
	reg := regionFromTree(r.tr, r.m, r.st)
	reg.Sched = r.sched
	return reg
}

// mergeWorker folds a frontier worker's algorithm-level counters into s.
// Only the counters processCell touches appear here; the arrangement-side
// counters travel through the worker's celltree shard, and the remaining
// Stats fields are filled at export time from the tree. All merges are
// sums, hence order-independent.
func (s *Stats) mergeWorker(o *Stats) {
	s.Reported += o.Reported
	s.Eliminated += o.Eliminated
	s.EarlyReported += o.EarlyReported
	s.EarlyEliminated += o.EarlyEliminated
	s.HullTests += o.HullTests
	s.GroupBatchHits += o.GroupBatchHits
	s.Iterations += o.Iterations
	s.Pivots += o.Pivots
	s.WarmHits += o.WarmHits
	s.WarmMisses += o.WarmMisses
	s.ColdSolves += o.ColdSolves
}
