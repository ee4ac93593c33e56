package core

import (
	"mir/internal/celltree"
	"mir/internal/par"
)

// SchedStats describes a multi-worker frontier execution: how wide the
// frontier got and how the cell load distributed. Every field except
// Workers is timing-dependent — it varies run to run and is explicitly
// excluded from the determinism contract the computed region and the
// algorithmic Stats counters obey. Accumulated across drains for
// maintained (incremental) runs.
type SchedStats struct {
	// Workers is the frontier's worker count.
	Workers int
	// Deprecated: always 0. The frontier no longer steals work; the field
	// stays because the benchmark in perfbench/analyst.go reads it for its
	// par.steals metric.
	Steals int
	// MaxFrontier is the high-water mark of in-flight cells.
	MaxFrontier int
	// PerWorkerCells[i] is the number of cells worker i processed.
	PerWorkerCells []int
}

// drain processes every staged cell through the frontier scheduler until
// none is left. modeMIR runs use Workers workers: cell processing
// commutes there (see aaWorker.processCell), so concurrent subtrees yield
// the identical arrangement. The frontier runs with one worker, in strict
// best-first order, for
//
//   - modeMaxCov / modeMinCost: their pruning reads and writes run-global
//     incumbents (bestCov, bestCost), so correctness — not just speed —
//     depends on the globally ordered traversal;
//   - RoundRobinGroup: the ablation strategy advances a run-global cursor,
//     whose sequence would depend on scheduling.
//
// The single worker is the run's sequential worker, which writes straight
// into the tree and r.st, so nothing needs merging and Region.Sched stays
// nil. More workers each own an aaWorker (scratch + tree shard + stats
// accumulator) for the drain; shards and counters merge by summation
// after the join, so the totals equal the sequential run's for every
// worker count.
func (r *aaRun) drain() {
	if r.queue.Len() == 0 {
		return
	}
	workers := 1
	if r.mode == modeMIR && r.opts.GroupChoice != RoundRobinGroup {
		workers = r.workers()
	}
	ws := []*aaWorker{r.seq}
	if workers > 1 {
		ws = make([]*aaWorker, workers)
		for i := range ws {
			ws[i] = &aaWorker{r: r, sh: r.tr.NewShard(), st: &Stats{}}
		}
	}
	fs := par.RunFrontier(workers, &r.queue, func(fw *par.FrontierWorker[*celltree.Cell], c *celltree.Cell) {
		ws[fw.ID()].processCell(c, fw.Push)
	})
	r.st.MaxFrontier = max(r.st.MaxFrontier, fs.MaxPending)
	if workers == 1 {
		return
	}
	for _, w := range ws {
		r.tr.AbsorbShard(w.sh)
		r.st.mergeWorker(w.st)
	}
	if r.sched == nil {
		r.sched = &SchedStats{Workers: workers, PerWorkerCells: make([]int, workers)}
	}
	r.sched.MaxFrontier = max(r.sched.MaxFrontier, fs.MaxPending)
	for i, n := range fs.PerWorker {
		if i < len(r.sched.PerWorkerCells) {
			r.sched.PerWorkerCells[i] += n
		}
	}
}

// region exports the run's current region together with the scheduler
// stats (nil when every drain ran at one worker).
func (r *aaRun) region() *Region {
	reg := regionFromTree(r.tr, r.m, r.st)
	reg.Sched = r.sched
	return reg
}

// mergeWorker folds a frontier worker's algorithm-level counters into s.
// Only the counters processCell touches appear here; the arrangement-side
// counters (Reported and Eliminated among them) travel through the
// worker's celltree shard, and the remaining Stats fields are filled at
// export time from the tree. All merges are sums, hence order-independent.
func (s *Stats) mergeWorker(o *Stats) {
	s.EarlyReported += o.EarlyReported
	s.EarlyEliminated += o.EarlyEliminated
	s.HullTests += o.HullTests
	s.GroupBatchHits += o.GroupBatchHits
	s.Iterations += o.Iterations
	s.Pivots += o.Pivots
	s.ColdSolves += o.ColdSolves
}
