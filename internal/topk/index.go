package topk

import (
	"fmt"
	"sort"

	"mir/internal/geom"
	"mir/internal/par"
)

// This file implements the indexed all-top-k engine: a layered product
// index in the style of the onion technique / the layered indexes of the
// reverse top-k literature (Vlachou et al.), plus a per-user
// threshold-algorithm search with Fagin-style early termination.
//
// Structure. Products are peeled into dominance rounds — round 0 is the
// skyline, round i the skyline of what remains after rounds 0..i-1 are
// removed — and consecutive rounds are banded into layers of a minimum
// thickness (the peel is capped; the remainder forms a final tail
// layer). Within a layer, rows are kd-ordered (recursive median splits
// on the widest attribute), then packed into a flat row-major matrix and
// cut into fixed-size blocks and superblocks, each storing its
// componentwise maxima. Peel order plus kd order make every block a
// small box of similar-depth, similar-direction rows, which is what
// keeps a block's maxima close to its best member and the threshold
// bound tight. (A block of scattered anti-correlated skyline points
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

// DefaultMaxLayers caps the dominance peel. Beyond the cap the remaining
// products form a single tail layer: deep layers are touched so rarely
// that finer peeling is not worth the build time.
const DefaultMaxLayers = 8

// layerBandRows is the minimum layer thickness: consecutive peel rounds
// are merged into one layer until it holds at least this many rows. A
// user's top-k is spread across the first ~k peel rounds, and with
// one-round layers each of those rounds costs at least one block scan;
// banding lets same-direction candidates from neighboring depths share a
// kd box, so the whole answer comes out of a handful of blocks.
const layerBandRows = 2 * superRows

// indexLayer is one dominance layer: packed member rows plus per-block
// and per-superblock componentwise maxima.
type indexLayer struct {
	flat []float64 // row-major member attributes, len(ids)*d values
	ids  []int     // global product id per row
	// blockMax[b] bounds rows [b*blockRows, (b+1)*blockRows);
	// superMax[sb] bounds rows [sb*superRows, (sb+1)*superRows).
	blockMax [][]float64
	superMax [][]float64
	// blockFlat and superFlat are contiguous row-major views of the same
	// maxima (the backing slab recomputeBounds fills): blockFlat row b ==
	// blockMax[b], superFlat row sb == superMax[sb]. They exist so a
	// query can score a whole layer's bounds with one batched DotRows
	// call — dispatch once per matrix, not once per granule.
	blockFlat []float64
	superFlat []float64
}

func (ly *indexLayer) rows() int { return len(ly.ids) }

// Index is the layered all-top-k product index. It is immutable once
// built, so any number of goroutines may search it concurrently.
type Index struct {
	dim int
	n   int // product count

	// rowData is the row-major product matrix the peel reads; row id i
	// lives at [i*dim, (i+1)*dim). Layers hold packed copies.
	rowData []float64

	layers    []*indexLayer
	maxLayers int
}

// NewIndex builds the layered index over the product set with the
// default peel cap. Product ids are the slice positions.
func NewIndex(products []geom.Vector) *Index {
	return NewIndexLayers(products, DefaultMaxLayers)
}

// NewIndexLayers is NewIndex with an explicit cap on the number of
// dominance layers (minimum 1: everything in one tail layer).
func NewIndexLayers(products []geom.Vector, maxLayers int) *Index {
	if maxLayers < 1 {
		maxLayers = 1
	}
	d := 0
	if len(products) > 0 {
		d = len(products[0])
	}
	ix := &Index{dim: d, n: len(products), maxLayers: maxLayers}
	ix.rowData = make([]float64, 0, len(products)*d)
	for i, p := range products {
		if len(p) != d {
			panic(fmt.Sprintf("topk: index product %d has %d attributes, want %d", i, len(p), d))
		}
		ix.rowData = append(ix.rowData, p...)
	}
	ix.build()
	return ix
}

// Dim returns the attribute dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed products.
func (ix *Index) Len() int { return ix.n }

// row returns the master-matrix row of product id as a Vector view.
func (ix *Index) row(id int) geom.Vector {
	return geom.Vector(ix.rowData[id*ix.dim : (id+1)*ix.dim : (id+1)*ix.dim])
}

// build peels the rows into dominance layers and builds every bound
// structure. The peel scans candidates in (attribute-sum descending, id
// ascending) order — the same order Skyband uses — so a candidate's
// dominators always precede it and the per-round skyline falls out of a
// sort-filter pass.
func (ix *Index) build() {
	d := ix.dim
	remaining := make([]int, ix.n)
	sums := make([]float64, ix.n)
	for id := range remaining {
		remaining[id] = id
		sums[id] = ix.row(id).Sum()
	}
	sort.Slice(remaining, func(a, b int) bool {
		if sums[remaining[a]] != sums[remaining[b]] {
			return sums[remaining[a]] > sums[remaining[b]]
		}
		return remaining[a] < remaining[b]
	})

	next := make([]int, 0, len(remaining))
	var layerIDs, band []int
	for len(remaining) > 0 {
		if len(ix.layers) == ix.maxLayers-1 {
			// Peel cap reached: everything left joins the tail layer.
			band = append(band, remaining...)
			remaining = remaining[:0]
			break
		}
		layerIDs, next = layerIDs[:0], next[:0]
		for _, id := range remaining {
			p := ix.row(id)
			pSum := sums[id]
			dominated := false
			// Members were appended in descending-sum order; a dominator q
			// satisfies q >= p - Eps componentwise, hence
			// sum(q) >= sum(p) - d*Eps, so the scan can stop early.
			for _, j := range layerIDs {
				if sums[j] < pSum-float64(d)*geom.Eps {
					break
				}
				if ix.row(j).Dominates(p) {
					dominated = true
					break
				}
			}
			if dominated {
				next = append(next, id)
			} else {
				layerIDs = append(layerIDs, id)
			}
		}
		// Bands: close the layer only once it is thick enough.
		band = append(band, layerIDs...)
		if len(band) >= layerBandRows {
			ix.pushLayer(band)
			band = band[:0]
		}
		remaining, next = next, remaining[:0]
	}
	if len(band) > 0 {
		ix.pushLayer(band)
	}
}

// pushLayer appends a layer holding the given product ids, reordered so
// row blocks are spatially tight boxes, and computes the per-block
// maxima.
func (ix *Index) pushLayer(ids []int) {
	d := ix.dim
	ly := &indexLayer{
		flat: make([]float64, len(ids)*d),
		ids:  append([]int(nil), ids...),
	}
	// kd-order the members: a layer's rows share a dominance depth but
	// fan across the whole attribute range, and a block of scattered rows
	// would bound near the corner of the space and never prune. The
	// recursive median partition groups each block's rows into a small
	// box in every dimension, which is what keeps a block's componentwise
	// maxima close to its best member — i.e. the threshold bound tight.
	ix.kdOrder(ly.ids)
	for i, id := range ly.ids {
		copy(ly.flat[i*d:(i+1)*d], ix.row(id))
	}
	ly.computeBounds(d)
	ix.layers = append(ix.layers, ly)
}

// kdOrder permutes ids so that every aligned blockRows-sized run forms a
// tight box: recursively, the widest attribute dimension is sorted on
// and the ids split at the median, rounded to a block multiple so the
// recursion cells and the fixed-stride blocks coincide. Determinism:
// every sort tie-breaks on id, so the final order is a pure function of
// the id set and the row data.
func (ix *Index) kdOrder(ids []int) {
	if len(ids) <= blockRows {
		return
	}
	d := ix.dim
	widest, spread := 0, -1.0
	for j := 0; j < d; j++ {
		lo, hi := ix.rowData[ids[0]*d+j], ix.rowData[ids[0]*d+j]
		for _, id := range ids[1:] {
			v := ix.rowData[id*d+j]
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
		va, vb := ix.rowData[ids[a]*d+widest], ix.rowData[ids[b]*d+widest]
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
	ix.kdOrder(ids[:mid])
	ix.kdOrder(ids[mid:])
}

// computeBounds builds the layer's per-block and per-superblock maxima
// from its rows (a layer always holds at least one row).
func (ly *indexLayer) computeBounds(d int) {
	n := ly.rows()
	nb := (n + blockRows - 1) / blockRows
	ns := (n + superRows - 1) / superRows
	// One backing slab keeps the per-layer allocation count flat — and
	// doubles as the contiguous bound matrices the batched queries score
	// (blockFlat, then superFlat).
	slab := make([]float64, (nb+ns)*d)
	ly.blockFlat = slab[: nb*d : nb*d]
	ly.superFlat = slab[nb*d:]
	ly.blockMax = make([][]float64, 0, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*blockRows, (b+1)*blockRows
		if hi > n {
			hi = n
		}
		bm := slab[b*d : (b+1)*d : (b+1)*d]
		copy(bm, ly.flat[lo*d:lo*d+d])
		geom.RowMax(ly.flat[(lo+1)*d:hi*d], d, bm)
		ly.blockMax = append(ly.blockMax, bm)
	}
	ly.superMax = make([][]float64, 0, ns)
	for sb := 0; sb < ns; sb++ {
		lo, hi := sb*superRows, (sb+1)*superRows
		if hi > n {
			hi = n
		}
		sm := slab[(nb+sb)*d : (nb+sb+1)*d : (nb+sb+1)*d]
		copy(sm, ly.flat[lo*d:lo*d+d])
		geom.RowMax(ly.flat[(lo+1)*d:hi*d], d, sm)
		ly.superMax = append(ly.superMax, sm)
	}
}

// SearchStats aggregates the search-effort counters of indexed top-k
// queries. All fields merge by summation (order-free), so per-worker
// accumulators combine deterministically.
type SearchStats struct {
	// ScannedProducts counts product rows actually scored.
	ScannedProducts int64
	// LayerPrunes counts index blocks (the layers' bound granules)
	// skipped whole by the threshold bound.
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
	layer int32
	idx   int32
	super bool
}

// granuleBefore orders the per-query bound queue: higher bound first,
// then (layer, kind, idx) ascending — a total order, so the scan
// sequence (and with it every stats counter) is deterministic.
func granuleBefore(a, b granuleRef) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.layer != b.layer {
		return a.layer < b.layer
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
	// superblock of the largest layer (grown on demand), and a fixed
	// block-bound buffer for one superblock's expansion.
	sBounds []float64
	bBounds [superRows / blockRows]float64
}

// growBounds returns the superblock-bound scratch resized to n.
func (s *Searcher) growBounds(n int) []float64 {
	if cap(s.sBounds) < n {
		s.sBounds = make([]float64, n)
	}
	return s.sBounds[:n]
}

// NewSearcher returns a Searcher over ix.
func NewSearcher(ix *Index) *Searcher { return &Searcher{ix: ix} }

// heapWorse reports whether candidate a ranks strictly below candidate b
// under the engine ranking (score descending, id ascending) — the heap
// keeps its worst kept candidate at the root.
func heapWorse(sa float64, ia int, sb float64, ib int) bool {
	if sa != sb {
		return sa < sb
	}
	return ia > ib
}

// Kth returns the top-k-th product (global id and score) for weight w,
// byte-identical to KthScore over the product set: same ranking, same
// tie-break, same float scores. It panics if k < 1 or k exceeds the
// product count.
func (s *Searcher) Kth(w geom.Vector, k int) KthResult {
	ix := s.ix
	if len(w) != ix.dim {
		panic(fmt.Sprintf("topk: index query with %d weights, want %d", len(w), ix.dim))
	}
	if k < 1 {
		panic(fmt.Sprintf("topk: user k=%d < 1", k))
	}
	if k > ix.n {
		panic(fmt.Sprintf("topk: k=%d exceeds |P|=%d", k, ix.n))
	}
	// The bounds assume non-negative weights (w · maxima dominates every
	// w · row only then). Preference vectors live on the unit simplex so
	// this always holds in the engine; a hostile caller just loses the
	// pruning, never correctness.
	canPrune := true
	for _, x := range w {
		if x < 0 {
			canPrune = false
			break
		}
	}

	if cap(s.hScore) < k {
		s.hScore = make([]float64, 0, k)
		s.hID = make([]int, 0, k)
	}
	s.hScore, s.hID = s.hScore[:0], s.hID[:0]
	full := false

	if !canPrune {
		// No valid bounds: scan every block in layer order.
		for _, ly := range ix.layers {
			for b := 0; b*blockRows < ly.rows(); b++ {
				full = s.scanBlock(ly, b, w, k, full)
			}
		}
		return KthResult{Index: s.hID[0], Score: s.hScore[0]}
	}

	// Seed the queue with one bound per superblock, then expand
	// best-first: popping a superblock queues its blocks' bounds, popping
	// a block scans it. The heap root rises as fast as possible, and the
	// first queued bound strictly below it proves everything unexpanded
	// worse — superblock maxima dominate their blocks' maxima, so a
	// pruned superblock soundly prunes every block under it.
	s.queue = s.queue[:0]
	for l, ly := range ix.layers {
		ns := len(ly.superMax)
		if ns == 0 {
			continue
		}
		// One batched dot over the layer's contiguous superblock maxima:
		// bit-identical to w.Dot per row, dispatched once per matrix.
		bounds := s.growBounds(ns)
		geom.DotRows(ly.superFlat, ix.dim, w, bounds)
		for sb, bd := range bounds {
			s.queue = append(s.queue, granuleRef{
				bound: bd,
				layer: int32(l),
				idx:   int32(sb),
				super: true,
			})
		}
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
		ly := ix.layers[best.layer]
		if !best.super {
			full = s.scanBlock(ly, int(best.idx), w, k, full)
			continue
		}
		lo := int(best.idx) * (superRows / blockRows)
		hi := lo + superRows/blockRows
		if nb := len(ly.blockMax); hi > nb {
			hi = nb
		}
		bb := s.bBounds[:hi-lo]
		geom.DotRows(ly.blockFlat[lo*ix.dim:hi*ix.dim], ix.dim, w, bb)
		for i, bd := range bb {
			s.queuePush(granuleRef{
				bound: bd,
				layer: best.layer,
				idx:   int32(lo + i),
			})
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
		ly := s.ix.layers[g.layer]
		lo := int(g.idx) * (superRows / blockRows)
		hi := lo + superRows/blockRows
		if nb := len(ly.blockMax); hi > nb {
			hi = nb
		}
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

// scanBlock scores block b of layer ly into the k-heap; it returns
// whether the heap is full afterwards.
func (s *Searcher) scanBlock(ly *indexLayer, b int, w geom.Vector, k int, full bool) bool {
	d := s.ix.dim
	lo, hi := b*blockRows, (b+1)*blockRows
	if n := ly.rows(); hi > n {
		hi = n
	}
	rows := hi - lo
	out := s.scores[:rows]
	geom.DotRows(ly.flat[lo*d:hi*d], d, w, out)
	s.Stats.ScannedProducts += int64(rows)
	for i, sc := range out {
		id := ly.ids[lo+i]
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
// predicate set, byte-identical to a full scan. For weight vectors with a
// negative component the bounds are invalid, so pruning is disabled and
// every block is scanned. Output order is layer/row order, not sorted.
// Skipped blocks count into Stats.LayerPrunes, scored rows into
// Stats.ScannedProducts.
func (s *Searcher) AtLeast(w geom.Vector, t float64, dst []int) []int {
	ix := s.ix
	if len(w) != ix.dim {
		panic(fmt.Sprintf("topk: index query with %d weights, want %d", len(w), ix.dim))
	}
	canPrune := true
	for _, x := range w {
		if x < 0 {
			canPrune = false
			break
		}
	}
	d := ix.dim
	for _, ly := range ix.layers {
		nb := len(ly.blockMax)
		ns := len(ly.superMax)
		var sBounds []float64
		if canPrune && ns > 0 {
			// Batched superblock bounds for the whole layer, then batched
			// block bounds per surviving superblock: the same bound values
			// (and hence the same prune/scan decisions and counters) as the
			// per-granule dots, one matrix dispatch per batch.
			sBounds = s.growBounds(ns)
			geom.DotRows(ly.superFlat, d, w, sBounds)
		}
		for sb := 0; sb < ns; sb++ {
			lo := sb * (superRows / blockRows)
			hi := lo + superRows/blockRows
			if hi > nb {
				hi = nb
			}
			if canPrune && sBounds[sb] < t {
				s.Stats.LayerPrunes += int64(hi - lo)
				continue
			}
			var bBounds []float64
			if canPrune {
				bBounds = s.bBounds[:hi-lo]
				geom.DotRows(ly.blockFlat[lo*d:hi*d], d, w, bBounds)
			}
			for b := lo; b < hi; b++ {
				if canPrune && bBounds[b-lo] < t {
					s.Stats.LayerPrunes++
					continue
				}
				rlo, rhi := b*blockRows, (b+1)*blockRows
				if n := ly.rows(); rhi > n {
					rhi = n
				}
				out := s.scores[:rhi-rlo]
				geom.DotRows(ly.flat[rlo*d:rhi*d], d, w, out)
				s.Stats.ScannedProducts += int64(rhi - rlo)
				for i, sc := range out {
					if sc >= t {
						dst = append(dst, ly.ids[rlo+i])
					}
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
	if kmax > ix.n {
		panic(fmt.Sprintf("topk: max k=%d exceeds |P|=%d", kmax, ix.n))
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
