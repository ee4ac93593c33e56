package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"mir"
	"mir/internal/core"
	"mir/internal/geom"
	"mir/internal/topk"
)

// dataSeed fixes a workload's point cloud. AA's cost swings several fold
// from one random instance to the next at these sizes, so a per-seed
// cloud would measure the draw, not the program. The run seed shuffles
// the input rows, draws the check points, and, on standing, scripts the
// session.
const dataSeed = 1

// shape sizes an analyst workload's generated input: IND products and
// clustered users with one k. README.md gives the sizing evidence.
type shape struct {
	products, users, d, k int
	cloud                 int64 // the point cloud's data seed
	setupReps             int   // NewAnalyzer builds whose median is setup_s
}

var (
	// regionD3's cloud is one where CostOptimalFast is about twice as
	// slow as CostOptimal at m = |U|/2; on the default cloud it is faster.
	regionD3  = shape{products: 5000, users: 100, d: 3, k: 10, cloud: 13, setupReps: 40}
	regionD2  = shape{products: 5000, users: 200, d: 2, k: 10, cloud: dataSeed, setupReps: 40}
	influence = shape{products: 20000, users: 10000, d: 4, k: 10, cloud: dataSeed, setupReps: 9}
)

// generate returns the workload's products and users, rows shuffled by
// the run seed.
func (s shape) generate(seed int64) ([][]float64, []mir.User) {
	products := mir.SynthProducts(mir.Independent, s.products, s.d, s.cloud)
	users := mir.SynthUsers(mir.Clustered, s.users, s.d, s.k, s.cloud+1)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(products), func(i, j int) { products[i], products[j] = products[j], products[i] })
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	return products, users
}

// setupBuilds times the NewAnalyzer builds whose median is setup_s. The
// host's speed drifts in phases of tens to hundreds of milliseconds, so the
// builds are spread evenly over the measured window instead of run back to
// back at its start: the first one before it, the rest as the window
// passes.
type setupBuilds struct {
	products [][]float64
	users    []mir.User
	reps     int
	start    time.Time
	window   time.Duration
	walls    []float64 // seconds per build
}

// first starts the window with the first build and returns its Analyzer,
// the one the workload's operations run on.
func (b *setupBuilds) first(window time.Duration) (*mir.Analyzer, error) {
	b.start, b.window = time.Now(), window
	return b.build()
}

// catchUp makes the builds that are due by now. Each later Analyzer is
// dropped.
func (b *setupBuilds) catchUp() error {
	due := 1 + int(float64(b.reps-1)*float64(time.Since(b.start))/float64(b.window))
	for len(b.walls) < min(due, b.reps) {
		if _, err := b.build(); err != nil {
			return err
		}
	}
	return nil
}

// finish makes the builds the window left over.
func (b *setupBuilds) finish() ([]float64, error) {
	for len(b.walls) < b.reps {
		if _, err := b.build(); err != nil {
			return nil, err
		}
	}
	return b.walls, nil
}

// build runs NewAnalyzer once with default Options after a collection, so
// that every build starts from a similar heap.
func (b *setupBuilds) build() (*mir.Analyzer, error) {
	runtime.GC()
	start := time.Now()
	an, err := mir.NewAnalyzer(b.products, b.users, nil)
	if err != nil {
		return nil, fmt.Errorf("NewAnalyzer: %w", err)
	}
	b.walls = append(b.walls, time.Since(start).Seconds())
	return an, nil
}

// minGap is how far, in score units, a check point must sit from every
// user's top-k boundary, so that float rounding cannot flip its answer.
const minGap = 1e-6

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// kthScore returns u's top-k-th product score by brute force: an oracle
// that shares no code with the library's index. top holds the k best
// scores so far in ascending order.
func kthScore(products [][]float64, u mir.User) float64 {
	top := make([]float64, 0, u.K)
	for _, p := range products {
		s := dot(u.Weights, p)
		if len(top) < u.K {
			i := sort.SearchFloat64s(top, s)
			top = append(top, 0)
			copy(top[i+1:], top[i:])
			top[i] = s
			continue
		}
		if s <= top[0] {
			continue
		}
		i := sort.SearchFloat64s(top, s)
		copy(top[:i-1], top[1:i])
		top[i-1] = s
	}
	return top[0]
}

func kthScores(products [][]float64, users []mir.User) []float64 {
	out := make([]float64, len(users))
	for i, u := range users {
		out[i] = kthScore(products, u)
	}
	return out
}

// checkPoint is a point with its brute-force coverage.
type checkPoint struct {
	p   []float64
	cov int
}

// drawCheckPoints draws n points in [0,1)^d at least minGap from every
// user's boundary, with their coverage. Every other point comes from the
// upper half-cube, where impact regions lie, so both answers get checked.
func drawCheckPoints(rng *rand.Rand, d, n int, users []mir.User, kth []float64) []checkPoint {
	pts := make([]checkPoint, 0, n)
	for len(pts) < n {
		lo := 0.5 * float64(len(pts)%2)
		p := make([]float64, d)
		for j := range p {
			p[j] = lo + (1-lo)*rng.Float64()
		}
		cov, near := 0, false
		for i, u := range users {
			g := dot(u.Weights, p) - kth[i]
			if math.Abs(g) < minGap {
				near = true
				break
			}
			if g > 0 {
				cov++
			}
		}
		if !near {
			pts = append(pts, checkPoint{p, cov})
		}
	}
	return pts
}

// regionAgrees checks a region against the coverage oracle: contains(p)
// must equal cov(p) >= m at every check point.
func regionAgrees(contains func([]float64) bool, pts []checkPoint, m int) bool {
	for _, c := range pts {
		if contains(c.p) != (c.cov >= m) {
			return false
		}
	}
	return true
}

// costAgrees checks one CO answer: it covers at least m users, and its
// cost matches the run's first CO answer to 1e-6 (CostOptimal and
// CostOptimalFast are both exact, so every answer must).
func costAgrees(cost float64, coverage, m int, ref *float64) bool {
	if coverage < m {
		return false
	}
	if math.IsNaN(*ref) {
		*ref = cost
	}
	return math.Abs(cost-*ref) <= 1e-6
}

// runRegion is the region-d3 and region-d2 workload: ImpactRegion,
// CostOptimal(L2) and CostOptimalFast(L2) at m = |U|/2, in turn, on one
// Analyzer.
func runRegion(cfg config, s shape) (*report, error) {
	products, users := s.generate(cfg.seed)
	m := s.users / 2
	pts := drawCheckPoints(rand.New(rand.NewSource(cfg.seed+2)), s.d, 1000, users, kthScores(products, users))
	if cfg.trace {
		return traceRegion(cfg, products, users, m, pts)
	}
	rep := newReport()
	setup := setupBuilds{products: products, users: users, reps: s.setupReps}
	an, err := setup.first(cfg.seconds)
	if err != nil {
		return nil, err
	}
	for _, c := range pts {
		rep.check(an.Coverage(c.p) == c.cov)
	}
	var region, co, fast []float64
	ref := math.NaN()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if err := setup.catchUp(); err != nil {
			return nil, err
		}
		start := time.Now()
		switch i % 3 {
		case 0:
			reg, err := an.ImpactRegion(m)
			region = append(region, msSince(start))
			rep.check(err == nil && regionAgrees(reg.Contains, pts, m))
		case 1:
			pl, err := an.CostOptimal(m, mir.L2())
			co = append(co, msSince(start))
			rep.check(err == nil && an.Coverage(pl.Point) >= m && costAgrees(pl.Cost, pl.Coverage, m, &ref))
		case 2:
			pl, err := an.CostOptimalFast(m, mir.L2())
			fast = append(fast, msSince(start))
			rep.check(err == nil && an.Coverage(pl.Point) >= m && costAgrees(pl.Cost, pl.Coverage, m, &ref))
		}
	}
	walls, err := setup.finish()
	if err != nil {
		return nil, err
	}
	rep.timing("setup_s", "NewAnalyzer_s", walls)
	rep.timing("op_main_ms", "ImpactRegion_ms", region)
	rep.timing("op_second_ms", "CostOptimal_ms", co)
	rep.timing("op_third_ms", "CostOptimalFast_ms", fast)
	rep.detail["m"] = m
	return rep, rep.finishSelf(cfg)
}

// runInfluence is the influence workload: NewAnalyzer on a large
// population, then MostInfluential(10) in a loop, each ranking re-derived
// through ReverseTopK, and a what-if Coverage probe per round.
func runInfluence(cfg config) (*report, error) {
	products, users := influence.generate(cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	sample := newUserSample(rng, products, users, 200)
	if cfg.trace {
		return traceInfluence(cfg, products, users, sample, rng)
	}
	rep := newReport()
	setup := setupBuilds{products: products, users: users, reps: influence.setupReps}
	an, err := setup.first(cfg.seconds)
	if err != nil {
		return nil, err
	}
	var mi, rtk, cov []float64
	deadline := time.Now().Add(cfg.seconds)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := setup.catchUp(); err != nil {
			return nil, err
		}
		start := time.Now()
		top := an.MostInfluential(10)
		mi = append(mi, msSince(start))
		rep.check(rankingOK(top, 10))
		for _, in := range top {
			start := time.Now()
			ids, err := an.ReverseTopK(in.ProductIndex)
			rtk = append(rtk, msSince(start))
			rep.check(err == nil && len(ids) == in.Coverage && sample.agrees(ids, products[in.ProductIndex]))
		}
		pi := rng.Intn(len(products))
		start = time.Now()
		c := an.Coverage(products[pi])
		cov = append(cov, msSince(start))
		ids, err := an.ReverseTopK(pi)
		rep.check(err == nil && c == len(ids))
	}
	walls, err := setup.finish()
	if err != nil {
		return nil, err
	}
	rep.timing("setup_s", "NewAnalyzer_s", walls)
	rep.timing("op_main_ms", "MostInfluential_ms", mi)
	rep.timing("op_second_ms", "ReverseTopK_ms", rtk)
	rep.timing("op_third_ms", "Coverage_ms", cov)
	return rep, rep.finishSelf(cfg)
}

// rankingOK checks a MostInfluential answer's shape: n entries, coverage
// non-increasing.
func rankingOK(top []mir.Influence, n int) bool {
	if len(top) != n {
		return false
	}
	for i := 1; i < len(top); i++ {
		if top[i].Coverage > top[i-1].Coverage {
			return false
		}
	}
	return true
}

// userSample holds brute-force thresholds for a random subset of users,
// to check reverse top-k membership without an O(|P|·|U|) oracle.
type userSample struct {
	idx []int
	w   [][]float64
	kth []float64
}

func newUserSample(rng *rand.Rand, products [][]float64, users []mir.User, n int) userSample {
	var s userSample
	for _, i := range rng.Perm(len(users))[:n] {
		s.idx = append(s.idx, i)
		s.w = append(s.w, users[i].Weights)
		s.kth = append(s.kth, kthScore(products, users[i]))
	}
	return s
}

// agrees reports whether ids, a reverse top-k answer for the product at
// p, holds exactly the sampled users whose threshold p clears, skipping
// users whose boundary p sits within minGap of.
func (s userSample) agrees(ids []int, p []float64) bool {
	in := make(map[int]bool, len(ids))
	for _, i := range ids {
		in[i] = true
	}
	for j, ui := range s.idx {
		g := dot(s.w[j], p) - s.kth[j]
		if math.Abs(g) >= minGap && (g > 0) != in[ui] {
			return false
		}
	}
	return true
}

func toCore(products [][]float64, users []mir.User) ([]geom.Vector, []topk.UserPref) {
	ps := make([]geom.Vector, len(products))
	for i, p := range products {
		ps[i] = p
	}
	us := make([]topk.UserPref, len(users))
	for i, u := range users {
		us[i] = topk.UserPref{W: u.Weights, K: u.K}
	}
	return ps, us
}

// tracePrep makes the preprocessing calls NewAnalyzer makes, each in its
// own span: the product index, the all-top-k search, and the instance
// build, which repeats both and adds grouping and hulls. It reports the
// topk and grouping layers.
func tracePrep(tr *tracer, root int, rep *report, products [][]float64, users []mir.User) (*core.Instance, error) {
	ps, us := toCore(products, users)
	var ix *topk.Index
	dIndex := tr.call("topk.NewIndex", root, func() { ix = topk.NewIndex(ps) })
	var st topk.SearchStats
	dAll := tr.call("topk.AllTopKWorkers", root, func() { _, st = ix.AllTopKWorkers(us, 0) })
	var inst *core.Instance
	var err error
	dInst := tr.call("core.NewInstanceOpts", root, func() { inst, err = core.NewInstanceOpts(ps, us, core.Options{}) })
	if err != nil {
		return nil, fmt.Errorf("core.NewInstanceOpts: %w", err)
	}
	n := float64(len(users))
	rep.set("topk.index_build_s", dIndex.Seconds())
	rep.set("topk.alltopk_s", dAll.Seconds())
	rep.set("topk.scanned_per_user", float64(st.ScannedProducts)/n)
	rep.set("topk.layer_prunes_per_user", float64(st.LayerPrunes)/n)
	rep.set("core.groups_hulls_s", (dInst - dIndex - dAll).Seconds())
	largest := 0
	for _, g := range inst.Groups {
		largest = max(largest, len(g.Members))
	}
	rep.set("core.groups", float64(len(inst.Groups)))
	rep.set("core.group_size_max", float64(largest))
	return inst, nil
}

// gcCPU returns the runtime's cumulative GC and total CPU-time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// traceRegion is the traced region run: the layer calls an Analyzer
// makes, made directly with default Options so that each gets a span,
// plus the layers' counters.
func traceRegion(cfg config, products [][]float64, users []mir.User, m int, pts []checkPoint) (*report, error) {
	rep := newReport()
	tr := &tracer{}
	root := tr.open("run", 0)
	inst, err := tracePrep(tr, root, rep, products, users)
	if err != nil {
		return nil, err
	}
	opts := core.Options{} // what NewAnalyzer(..., nil) passes
	var cpu, wall float64
	var allocMB, steals, imbalance []float64
	var last *core.Region
	ref := math.NaN()
	gc0, total0 := gcCPU()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		switch i % 3 {
		case 0:
			alloc0 := totalAlloc()
			cpu0, _, err := selfUsage()
			if err != nil {
				return nil, err
			}
			var reg *core.Region
			d := tr.call("core.AA", root, func() { reg, err = core.AA(inst, m, opts) })
			cpu1, _, uerr := selfUsage()
			if err != nil || uerr != nil {
				return nil, fmt.Errorf("core.AA: %v %v", err, uerr)
			}
			cpu, wall = cpu+cpu1-cpu0, wall+d.Seconds()
			allocMB = append(allocMB, float64(totalAlloc()-alloc0)/(1<<20))
			if s := reg.Sched; s != nil {
				steals = append(steals, float64(s.Steals))
				imbalance = append(imbalance, maxOverMean(s.PerWorkerCells))
			}
			tr.call(benchCheck, root, func() {
				rep.check(regionAgrees(func(p []float64) bool { return reg.Contains(p) }, pts, m))
			})
			last = reg
		case 1:
			var res *core.COResult
			tr.call("core.SolveCO", root, func() { res, err = core.SolveCO(inst, m, core.L2Cost{}, opts) })
			rep.check(err == nil && costAgrees(res.Cost, res.Coverage, m, &ref))
		case 2:
			var res *core.COResult
			tr.call("core.SolveCOBestFirst", root, func() { res, err = core.SolveCOBestFirst(inst, m, core.L2Cost{}, opts) })
			rep.check(err == nil && costAgrees(res.Cost, res.Coverage, m, &ref))
		}
	}
	gc1, total1 := gcCPU()
	wallRun := tr.close(root)

	st := last.Stats
	aa := median(tr.durations("core.AA"))
	rep.set("core.aa_s", aa)
	rep.set("core.cells", float64(st.Cells))
	rep.set("core.splits", float64(st.Splits))
	rep.set("core.iterations", float64(st.Iterations))
	rep.set("core.fast_test_share", ratio(float64(st.FastTests), float64(st.FastTests+st.ContainmentTests)))
	rep.set("core.early_decided_share", ratio(float64(st.EarlyReported+st.EarlyEliminated), float64(st.Reported+st.Eliminated)))
	rep.set("core.hull_tests", float64(st.HullTests))
	rep.set("core.group_batch_hits", float64(st.GroupBatchHits))
	rep.set("core.co_mincell_s", median(tr.durations("core.SolveCO"))-aa)
	rep.set("lp.pivots", float64(st.Pivots))
	rep.set("lp.pivots_per_solve", ratio(float64(st.Pivots), float64(st.WarmHits+st.ColdSolves)))
	rep.set("lp.warm_hit_ratio", ratio(float64(st.WarmHits), float64(st.WarmHits+st.WarmMisses)))
	rep.set("lp.cold_solves", float64(st.ColdSolves))
	rep.set("celltree.prune_lp_tests", float64(st.PruneLPTests))
	rep.set("celltree.pruned_rows_per_test", ratio(float64(st.PrunedRows), float64(st.PruneLPTests)))
	rep.set("par.cpu_per_wall", ratio(cpu, wall))
	rep.set("par.steals", zeroIfEmpty(median(steals)))
	rep.set("par.worker_cell_imbalance", zeroIfEmpty(median(imbalance)))
	rep.set("runtime.alloc_mb_per_build", median(allocMB))
	rep.set("runtime.gc_cpu_fraction", ratio(gc1-gc0, total1-total0))
	rep.detail["m"] = m
	rep.detail["builds"] = map[string]int{
		"core.AA":               len(tr.durations("core.AA")),
		"core.SolveCO":          len(tr.durations("core.SolveCO")),
		"core.SolveCOBestFirst": len(tr.durations("core.SolveCOBestFirst")),
	}
	rep.zero(standingLayer)
	finishTrace(rep, tr, "run", wallRun)
	return rep, rep.finishSelf(cfg)
}

// traceInfluence is the traced influence run: the preprocessing layers in
// their own spans, then NewAnalyzer and the loop of runInfluence with a
// span around each public call.
func traceInfluence(cfg config, products [][]float64, users []mir.User, sample userSample, rng *rand.Rand) (*report, error) {
	rep := newReport()
	tr := &tracer{}
	root := tr.open("run", 0)
	if _, err := tracePrep(tr, root, rep, products, users); err != nil {
		return nil, err
	}
	var an *mir.Analyzer
	var err error
	tr.call("mir.NewAnalyzer", root, func() { an, err = mir.NewAnalyzer(products, users, nil) })
	if err != nil {
		return nil, fmt.Errorf("NewAnalyzer: %w", err)
	}
	deadline := time.Now().Add(cfg.seconds)
	for first := true; first || time.Now().Before(deadline); first = false {
		var top []mir.Influence
		tr.call("mir.MostInfluential", root, func() { top = an.MostInfluential(10) })
		rep.check(rankingOK(top, 10))
		for _, in := range top {
			var ids []int
			tr.call("mir.ReverseTopK", root, func() { ids, err = an.ReverseTopK(in.ProductIndex) })
			tr.call(benchCheck, root, func() {
				rep.check(err == nil && len(ids) == in.Coverage && sample.agrees(ids, products[in.ProductIndex]))
			})
		}
		pi := rng.Intn(len(products))
		var c int
		tr.call("mir.Coverage", root, func() { c = an.Coverage(products[pi]) })
		tr.call(benchCheck, root, func() {
			ids, err := an.ReverseTopK(pi)
			rep.check(err == nil && c == len(ids))
		})
	}
	wallRun := tr.close(root)
	rep.zero(aaLayer, standingLayer)
	finishTrace(rep, tr, "run", wallRun)
	return rep, rep.finishSelf(cfg)
}

func maxOverMean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	top, sum := 0, 0
	for _, x := range xs {
		top, sum = max(top, x), sum+x
	}
	return ratio(float64(top), float64(sum)/float64(len(xs)))
}

// zeroIfEmpty maps the NaN median of no samples to 0: the sequential
// scheduler records no steals and no per-worker split.
func zeroIfEmpty(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
