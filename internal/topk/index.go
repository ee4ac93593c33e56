package topk

import (
	"fmt"
	"sort"

	"mir/internal/geom"
	"mir/internal/par"
)

// This file implements the indexed all-top-k engine: one kd-ordered,
// packed product matrix with componentwise-maxima bounds, plus a per-user
// threshold-algorithm search with Fagin-style early termination.
//
// Structure. The products are kd-ordered (recursive median splits on the
// widest attribute), then packed into a flat row-major matrix and cut
// into fixed-size blocks and superblocks, each storing its componentwise
// maxima. kd order makes every block a small box of similar rows, which
// is what keeps a block's maxima close to its best member and the
// threshold bound tight. (A block of scattered anti-correlated points
// would bound near the corner of the space and never prune.)
//
// Search. A user's top-k query keeps a bounded k-heap whose root is the
// current k-th best candidate under the engine-wide ranking
// (score descending, product id ascending). For a non-negative weight
// vector w, w · max(granule) upper bounds every score in the granule, so
// the query runs a best-first expansion over a priority queue of bounds:
// it seeds the queue with one bound per superblock, expands a popped
// superblock into its blocks' bounds, scans a popped block, and stops
// the moment the best queued bound drops strictly below the heap root —
// everything unexpanded is provably worse. The two-level queue is what
// keeps the bound arithmetic itself sublinear: block bounds are only
// ever evaluated under superblocks that survived the threshold. Bounds
// are computed with the same dot kernel as scores and componentwise
// maxima only ever round monotonically, so a bound below the root proves
// no unseen product can beat it — no epsilon slack is needed, and
// results are byte-identical to the naive full-scan selection. (Stopping
// on a tie would not be: an equal-bound block can hide an equal-score
// product with a smaller id.)

// blockRows and superRows are the two bound granularities of the index.
// Blocks (the scan unit) are kept small so their maxima hug their rows;
// superblocks amortize the per-query bound evaluations — the search
// seeds its queue with one bound per superblock and only evaluates a
// superblock's block bounds when the superblock itself survives the
// threshold. superRows must be a multiple of blockRows.
const (
	blockRows = 8
	superRows = 256
)

// Index is the all-top-k product index. It is immutable once built, so
// any number of goroutines may search it concurrently.
type Index struct {
	dim  int
	flat []float64 // row-major kd-ordered product attributes, Len()*dim values
	ids  []int     // product id per row
	// blockFlat row b bounds rows [b*blockRows, (b+1)*blockRows);
	// superFlat row sb bounds rows [sb*superRows, (sb+1)*superRows).
	// Both are row-major d-column matrices, so a query scores a whole
	// bound level with one batched DotRows call — dispatch once per
	// matrix, not once per granule.
	blockFlat []float64
	superFlat []float64
}

// NewIndex builds the index over the product set. Product ids are the
// slice positions.
func NewIndex(products []geom.Vector) *Index {
	d := 0
	if len(products) > 0 {
		d = len(products[0])
	}
	ids := make([]int, len(products))
	for i, p := range products {
		if len(p) != d {
			panic(fmt.Sprintf("topk: index product %d has %d attributes, want %d", i, len(p), d))
		}
		ids[i] = i
	}
	kdOrder(products, ids)
	ix := &Index{dim: d, ids: ids, flat: make([]float64, len(ids)*d)}
	for r, id := range ids {
		copy(ix.flat[r*d:(r+1)*d], products[id])
	}
	ix.computeBounds()
	return ix
}

// Dim returns the attribute dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed products.
func (ix *Index) Len() int { return len(ix.ids) }

// blocks and supers count the index's blocks and superblocks.
func (ix *Index) blocks() int { return (ix.Len() + blockRows - 1) / blockRows }
func (ix *Index) supers() int { return (ix.Len() + superRows - 1) / superRows }

// superSpan returns the block range [lo, hi) under superblock sb.
func (ix *Index) superSpan(sb int) (lo, hi int) {
	lo = sb * (superRows / blockRows)
	return lo, min(lo+superRows/blockRows, ix.blocks())
}

// blockSpan returns the row range [lo, hi) of block b.
func (ix *Index) blockSpan(b int) (lo, hi int) {
	lo = b * blockRows
	return lo, min(lo+blockRows, ix.Len())
}

// kdOrder permutes ids so that every aligned blockRows-sized run forms a
// tight box: recursively, the widest attribute dimension is sorted on
// and the ids split at the median, rounded to a block multiple so the
// recursion cells and the fixed-stride blocks coincide. Determinism:
// every sort tie-breaks on id, so the final order is a pure function of
// the id set and the product coordinates.
func kdOrder(products []geom.Vector, ids []int) {
	if len(ids) <= blockRows {
		return
	}
	widest, spread := 0, -1.0
	for j := range products[ids[0]] {
		lo, hi := products[ids[0]][j], products[ids[0]][j]
		for _, id := range ids[1:] {
			v := products[id][j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s := hi - lo; s > spread {
			widest, spread = j, s
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		va, vb := products[ids[a]][widest], products[ids[b]][widest]
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b]
	})
	// Round the split to a bound-granule multiple so the recursion cells
	// and the fixed-stride blocks (and, while the cell is large enough,
	// superblocks) coincide — a granule never straddles two kd boxes.
	unit := blockRows
	if len(ids) > superRows {
		unit = superRows
	}
	mid := len(ids) / 2 / unit * unit
	if mid == 0 {
		mid = unit
	}
	kdOrder(products, ids[:mid])
	kdOrder(products, ids[mid:])
}

// computeBounds builds the per-block and per-superblock maxima from the
// packed rows.
func (ix *Index) computeBounds() {
	d, n, nb, ns := ix.dim, ix.Len(), ix.blocks(), ix.supers()
	// One backing slab: blockFlat, then superFlat.
	slab := make([]float64, (nb+ns)*d)
	ix.blockFlat = slab[: nb*d : nb*d]
	ix.superFlat = slab[nb*d:]
	maxima := func(bounds []float64, granules, size int) {
		for i := 0; i < granules; i++ {
			lo, hi := i*size, min((i+1)*size, n)
			m := bounds[i*d : (i+1)*d : (i+1)*d]
			copy(m, ix.flat[lo*d:lo*d+d])
			geom.RowMax(ix.flat[(lo+1)*d:hi*d], d, m)
		}
	}
	maxima(ix.blockFlat, nb, blockRows)
	maxima(ix.superFlat, ns, superRows)
}

// SearchStats aggregates the search-effort counters of indexed top-k
// queries. All fields merge by summation (order-free), so per-worker
// accumulators combine deterministically.
type SearchStats struct {
	// ScannedProducts counts product rows actually scored.
	ScannedProducts int64
	// LayerPrunes counts index blocks skipped whole by the threshold
	// bound. The name predates the single-matrix index; perfbench and
	// the engine's Stats read it under this name.
	LayerPrunes int64
}

// Add folds o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.ScannedProducts += o.ScannedProducts
	s.LayerPrunes += o.LayerPrunes
}

// granuleRef is one entry of the per-query bound queue: a granule's
// bound for the query weights plus its address. idx is the superblock
// index when super is true, the block index otherwise.
type granuleRef struct {
	bound float64
	idx   int32
	super bool
}

// granuleBefore orders the per-query bound queue: higher bound first,
// then (kind, idx) ascending — a total order, so the scan sequence (and
// with it every stats counter) is deterministic.
func granuleBefore(a, b granuleRef) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.super != b.super {
		return b.super
	}
	return a.idx < b.idx
}

// Searcher runs top-k queries against an Index, reusing its heaps and
// score scratch across calls and accumulating SearchStats. A Searcher
// is not safe for concurrent use; run one per goroutine (the Index
// itself is).
type Searcher struct {
	ix    *Index
	Stats SearchStats

	hScore []float64
	hID    []int
	queue  []granuleRef
	scores [blockRows]float64
	// bound-scoring scratch for the batched granule dots: one slot per
	// superblock, and a fixed block-bound buffer for one superblock's
	// expansion.
	sBounds []float64
	bBounds [superRows / blockRows]float64
}

// NewSearcher returns a Searcher over ix.
func NewSearcher(ix *Index) *Searcher {
	return &Searcher{ix: ix, sBounds: make([]float64, ix.supers())}
}

// heapWorse reports whether candidate a ranks strictly below candidate b
// under the engine ranking (score descending, id ascending) — the heap
// keeps its worst kept candidate at the root.
func heapWorse(sa float64, ia int, sb float64, ib int) bool {
	if sa != sb {
		return sa < sb
	}
	return ia > ib
}

// checkWeights panics unless w has the index's dimensionality and no
// negative component: w · maxima bounds every w · row of a granule only
// for w >= 0. The engine rejects negative weights at its boundary
// (core.ErrNegativeWeight), so one reaching the index is a caller bug,
// like an out-of-range k.
func (ix *Index) checkWeights(w geom.Vector) {
	if len(w) != ix.dim {
		panic(fmt.Sprintf("topk: index query with %d weights, want %d", len(w), ix.dim))
	}
	for j, x := range w {
		if x < 0 {
			panic(fmt.Sprintf("topk: index query weight %d is %v < 0", j, x))
		}
	}
}

// Kth returns the top-k-th product (global id and score) for weight w,
// byte-identical to KthScore over the product set: same ranking, same
// tie-break, same float scores. It panics if k < 1, k exceeds the
// product count, or w has a negative component.
func (s *Searcher) Kth(w geom.Vector, k int) KthResult {
	ix := s.ix
	ix.checkWeights(w)
	if k < 1 {
		panic(fmt.Sprintf("topk: user k=%d < 1", k))
	}
	if k > ix.Len() {
		panic(fmt.Sprintf("topk: k=%d exceeds |P|=%d", k, ix.Len()))
	}

	if cap(s.hScore) < k {
		s.hScore = make([]float64, 0, k)
		s.hID = make([]int, 0, k)
	}
	s.hScore, s.hID = s.hScore[:0], s.hID[:0]
	full := false

	// Seed the queue with one bound per superblock, then expand
	// best-first: popping a superblock queues its blocks' bounds, popping
	// a block scans it. The heap root rises as fast as possible, and the
	// first queued bound strictly below it proves everything unexpanded
	// worse — superblock maxima dominate their blocks' maxima, so a
	// pruned superblock soundly prunes every block under it. One batched
	// dot scores the contiguous superblock maxima, bit-identical to w.Dot
	// per row.
	geom.DotRows(ix.superFlat, ix.dim, w, s.sBounds)
	s.queue = s.queue[:0]
	for sb, bd := range s.sBounds {
		s.queue = append(s.queue, granuleRef{bound: bd, idx: int32(sb), super: true})
	}
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		granuleSiftDown(s.queue, i)
	}
	for len(s.queue) > 0 {
		best := s.queue[0]
		if full && best.bound < s.hScore[0] {
			s.Stats.LayerPrunes += s.prunedBlocks()
			break
		}
		n := len(s.queue) - 1
		s.queue[0] = s.queue[n]
		s.queue = s.queue[:n]
		granuleSiftDown(s.queue, 0)
		if !best.super {
			full = s.scanBlock(int(best.idx), w, k, full)
			continue
		}
		lo, hi := ix.superSpan(int(best.idx))
		bb := s.bBounds[:hi-lo]
		geom.DotRows(ix.blockFlat[lo*ix.dim:hi*ix.dim], ix.dim, w, bb)
		for i, bd := range bb {
			s.queuePush(granuleRef{bound: bd, idx: int32(lo + i)})
		}
	}
	return KthResult{Index: s.hID[0], Score: s.hScore[0]}
}

// prunedBlocks counts the block granules the remaining queue covers —
// one per queued block, a superblock's full block span otherwise.
func (s *Searcher) prunedBlocks() int64 {
	var n int64
	for _, g := range s.queue {
		if !g.super {
			n++
			continue
		}
		lo, hi := s.ix.superSpan(int(g.idx))
		n += int64(hi - lo)
	}
	return n
}

// queuePush appends a granule to the bound queue and sifts it up.
func (s *Searcher) queuePush(g granuleRef) {
	s.queue = append(s.queue, g)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !granuleBefore(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// scanBlock scores block b into the k-heap; it returns whether the heap
// is full afterwards.
func (s *Searcher) scanBlock(b int, w geom.Vector, k int, full bool) bool {
	ix := s.ix
	d := ix.dim
	lo, hi := ix.blockSpan(b)
	out := s.scores[:hi-lo]
	geom.DotRows(ix.flat[lo*d:hi*d], d, w, out)
	s.Stats.ScannedProducts += int64(hi - lo)
	for i, sc := range out {
		id := ix.ids[lo+i]
		if !full {
			s.heapPush(sc, id)
			full = len(s.hID) == k
		} else if heapWorse(s.hScore[0], s.hID[0], sc, id) {
			s.heapReplaceRoot(sc, id)
		}
	}
	return full
}

// AtLeast appends to dst the ids of every product whose score w·p
// reaches at least t and returns the extended slice — the threshold scan
// behind reverse-influence queries (a product covers a user exactly when
// it scores at least the user's top-k entry threshold). Whole blocks are
// skipped when their componentwise-maxima bound falls below t; bounds and
// scores use the same dot kernel and maxima only round monotonically, so
// no product with score >= t is ever pruned and the result is exactly the
// predicate set, byte-identical to a full scan. Output order is index
// row order, not sorted. Skipped blocks count into Stats.LayerPrunes,
// scored rows into Stats.ScannedProducts. It panics if w has a negative
// component.
func (s *Searcher) AtLeast(w geom.Vector, t float64, dst []int) []int {
	ix := s.ix
	ix.checkWeights(w)
	d := ix.dim
	// Batched superblock bounds, then batched block bounds per surviving
	// superblock: the same bound values (and hence the same prune/scan
	// decisions and counters) as the per-granule dots, one matrix
	// dispatch per batch.
	geom.DotRows(ix.superFlat, d, w, s.sBounds)
	for sb, sbd := range s.sBounds {
		lo, hi := ix.superSpan(sb)
		if sbd < t {
			s.Stats.LayerPrunes += int64(hi - lo)
			continue
		}
		bBounds := s.bBounds[:hi-lo]
		geom.DotRows(ix.blockFlat[lo*d:hi*d], d, w, bBounds)
		for b := lo; b < hi; b++ {
			if bBounds[b-lo] < t {
				s.Stats.LayerPrunes++
				continue
			}
			rlo, rhi := ix.blockSpan(b)
			out := s.scores[:rhi-rlo]
			geom.DotRows(ix.flat[rlo*d:rhi*d], d, w, out)
			s.Stats.ScannedProducts += int64(rhi - rlo)
			for i, sc := range out {
				if sc >= t {
					dst = append(dst, ix.ids[rlo+i])
				}
			}
		}
	}
	return dst
}

// granuleSiftDown restores the bound queue's heap order below position i
// (best granule at the root).
func granuleSiftDown(q []granuleRef, i int) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && granuleBefore(q[r], q[c]) {
			c = r
		}
		if !granuleBefore(q[c], q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// heapPush appends a candidate and sifts it up (heap ordered with the
// worst kept candidate at the root).
func (s *Searcher) heapPush(score float64, id int) {
	s.hScore = append(s.hScore, score)
	s.hID = append(s.hID, id)
	i := len(s.hID) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapWorse(s.hScore[i], s.hID[i], s.hScore[p], s.hID[p]) {
			break
		}
		s.hScore[i], s.hScore[p] = s.hScore[p], s.hScore[i]
		s.hID[i], s.hID[p] = s.hID[p], s.hID[i]
		i = p
	}
}

// heapReplaceRoot overwrites the root (the current k-th) and sifts down.
func (s *Searcher) heapReplaceRoot(score float64, id int) {
	s.hScore[0], s.hID[0] = score, id
	n := len(s.hID)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && heapWorse(s.hScore[r], s.hID[r], s.hScore[c], s.hID[c]) {
			c = r
		}
		if !heapWorse(s.hScore[c], s.hID[c], s.hScore[i], s.hID[i]) {
			break
		}
		s.hScore[i], s.hScore[c] = s.hScore[c], s.hScore[i]
		s.hID[i], s.hID[c] = s.hID[c], s.hID[i]
		i = c
	}
}

// AllTopKWorkers answers every user's top-k-th product from the index,
// fanning users across workers in contiguous chunks (0 = all cores,
// 1 = strictly sequential). The output is byte-identical to the naive
// AllTopKWorkers for every worker count; the returned SearchStats sum
// the per-worker counters order-free, so they are deterministic too.
func (ix *Index) AllTopKWorkers(users []UserPref, workers int) ([]KthResult, SearchStats) {
	kmax := 0
	for _, u := range users {
		if u.K > kmax {
			kmax = u.K
		}
		if u.K < 1 {
			panic(fmt.Sprintf("topk: user k=%d < 1", u.K))
		}
	}
	if kmax > ix.Len() {
		panic(fmt.Sprintf("topk: max k=%d exceeds |P|=%d", kmax, ix.Len()))
	}
	out := make([]KthResult, len(users))
	nw := par.Resolve(workers)
	if nw > len(users) {
		nw = len(users)
	}
	searchers := make([]*Searcher, nw)
	par.ForWorker(len(users), workers, func(worker, ui int) {
		s := searchers[worker]
		if s == nil {
			s = NewSearcher(ix)
			searchers[worker] = s
		}
		out[ui] = s.Kth(users[ui].W, users[ui].K)
	})
	var st SearchStats
	for _, s := range searchers {
		if s != nil {
			st.Add(s.Stats)
		}
	}
	return out, st
}
