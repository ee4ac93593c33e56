package core

import "mir/internal/lp"

// GroupChoice selects which pending group AA inserts into a cell when the
// batch tests leave it undecided (paper Figure 17a ablation).
type GroupChoice int

const (
	// LargestGroup (the paper's strategy): the bigger the group, the more
	// aggressively it pushes the cell toward early reporting/elimination.
	LargestGroup GroupChoice = iota
	// SmallestGroup: the adversarial opposite, for ablation.
	SmallestGroup
	// RoundRobinGroup: rotate through pending groups.
	RoundRobinGroup
)

// Options tune the AA algorithm; the zero value enables every optimization
// (the paper's configuration). DisableFastTest, DisableInnerGroup,
// Disable2D and DisableGrouping are the effectiveness ablations of
// Section 6.4, which the public mir.Options mirrors. The engineering
// switches (DisablePruning, DisableRouting) are not public: their off
// paths serve as references for the identity tests and the work gates
// (workgate_test.go).
type Options struct {
	// Workers caps the parallel execution layer threaded through the
	// engine: the all-top-k preprocessing fan-out, instance construction
	// (halfspace + per-group hull precomputation), and the mIR-mode
	// frontier, whose workers process disjoint arrangement cells
	// concurrently from one shared priority queue. One goroutine always
	// processes a cell; best-first CO, the max-coverage searches and
	// RoundRobinGroup run the frontier at one worker, on the caller's
	// goroutine, at any setting. 0 (the default) uses every core
	// (runtime.GOMAXPROCS); 1 runs everything on the caller's goroutine
	// in strict best-first order — ablation and EXPERIMENTS.md numbers
	// were measured that way. The computed region and every Stats counter
	// except MaxFrontier are identical for every setting.
	Workers int
	// GroupChoice picks the insertion group (Figure 17a).
	GroupChoice GroupChoice
	// DisableFastTest turns off the MBB filter-and-refine tests of
	// Section 5.3 (Figure 16c).
	DisableFastTest bool
	// DisableInnerGroup turns off inner-group processing (Section 5.2):
	// group members are classified one by one against the cell and all
	// cutting halfspaces are inserted eagerly (Figure 16b).
	DisableInnerGroup bool
	// Disable2D turns off the specialized two-dimensional insertion of
	// Section 5.4, forcing the generic path even when d = 2 (Figure 16a).
	Disable2D bool
	// DisableGrouping makes every user its own group, degenerating AA
	// toward BSL-style one-by-one insertion (extra ablation).
	DisableGrouping bool
	// DisablePruning turns off the arrangement's split-time redundancy
	// elimination of cell H-representations (celltree.Tree.Prune). Pruning
	// only changes the internal representation, never the point sets, so
	// the computed region is identical either way; the switch exists for
	// benchmarking and for the equivalence property tests.
	DisablePruning bool
	// DisableRouting makes routed incremental maintenance defer nothing:
	// every event's descent reaches every leaf of the arrangement, the
	// full sweep. Routing defers events on subtrees where conservative
	// revival/demotion bounds prove no decision can flip, settling them
	// lazily, so per-event leaf visits track the event's geometric
	// footprint instead of |tree|. Both settings run the same descent,
	// leaf replay and re-verification drain, so maintained regions are
	// byte-identical routing on or off for every worker count (the
	// property tests pin this); the switch is their reference and the
	// standing work gate's swept row.
	DisableRouting bool
}

// Stats aggregates the algorithm-level counters reported in the paper's
// Section 6 (cell counts come from the arrangement's own stats).
type Stats struct {
	// Cells, Splits, ContainmentTests, FastTests mirror the arrangement.
	Cells            int
	Splits           int
	ContainmentTests int
	FastTests        int
	// Reported and Eliminated count decided cells; EarlyReported and
	// EarlyEliminated count the subset decided before their group list
	// emptied (the paper's early reporting / early elimination,
	// Figure 16d).
	Reported        int
	Eliminated      int
	EarlyReported   int
	EarlyEliminated int
	// HullTests counts convex-hull membership LPs run by inner-group
	// processing; GroupBatchHits counts whole groups decided by Lemma 3/4.
	HullTests      int
	GroupBatchHits int
	// PruneLPTests and PrunedRows mirror the arrangement's split-time
	// redundancy-elimination counters (zero when pruning is disabled).
	PruneLPTests int
	PrunedRows   int
	// Iterations counts cells popped from the frontier queue.
	Iterations int
	// Pivots counts the simplex pivots of every classification,
	// redundancy, and hull LP of the run, and ColdSolves counts those
	// solves, each of which starts from the slack basis (lp.Counters,
	// summed order-free per worker like PruneLPTests). Both are invariant
	// across worker counts: every solve depends only on the cell it runs
	// on.
	Pivots int64
	// Deprecated: always 0. LP solves are no longer warm-started; the
	// fields stay because the benchmark in perfbench/analyst.go reads them
	// for its lp.pivots_per_solve and lp.warm_hit_ratio metrics.
	WarmHits, WarmMisses int64
	// ColdSolves is described with Pivots.
	ColdSolves int64
	// ScannedProducts and LayerPrunes profile the all-top-k index:
	// product rows actually scored and index blocks skipped whole by the
	// threshold bound (LayerPrunes keeps its name from an earlier,
	// layered index), summed over the instance's preprocessing and every
	// UserArrived answered from the index. Both are deterministic across
	// worker counts (per-user work is partition-independent and merges by
	// summation).
	ScannedProducts int64
	LayerPrunes     int64
	// RoutedLeaves, SkippedSubtrees, and TouchedFrontier profile routed
	// incremental maintenance (zero outside maintained runs; see
	// celltree.Stats for the exact semantics). RoutedLeaves counts leaf
	// visits by event application, SkippedSubtrees counts subtree/leaf
	// deferrals proven safe by the routing bounds, and TouchedFrontier
	// counts leaves handed to re-verification. RoutedLeaves and
	// TouchedFrontier are deterministic across worker counts and routing
	// settings' respective modes (the full sweep stages every leaf;
	// routing's deferrals depend only on event geometry); all three merge
	// by summation, order-free.
	RoutedLeaves    int
	SkippedSubtrees int
	TouchedFrontier int
	// CountDesyncs counts the removals of a user some leaf believed decided
	// but whose halfspace then classified as cutting that leaf — an
	// accounting desynchronization between a cell's InCount/OutCount and
	// the alive population. It must stay zero: the invariant tests fail
	// when it doesn't, and a nonzero value means the affected leaf's counts
	// were left untouched (the removal had nothing sound to undo).
	CountDesyncs int64
	// MaxFrontier is the high-water mark of in-flight cells (queued +
	// running). Unlike every counter above, it is scheduling-sensitive at
	// Workers > 1 (it varies run to run) and is excluded from the
	// cross-worker-count determinism contract. At Workers <= 1 it is the
	// deterministic high-water mark of the best-first queue.
	MaxFrontier int
}

// addLP folds a batch of solver-effort deltas into the Stats' LP counters.
func (s *Stats) addLP(d lp.Counters) {
	s.Pivots += d.Pivots
	s.ColdSolves += d.ColdSolves
}
