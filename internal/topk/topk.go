// Package topk implements the top-k query substrate that mIR builds on:
// linear scoring, per-user top-k retrieval, the k-skyband, the skyline, and
// a batched all-top-k computation that yields every user's top-k-th product
// (the entry threshold that defines the user's influential halfspace).
//
// The paper uses the all-top-k algorithm of Ge et al. [26] for this step.
// The engine answers it from Index (index.go), a kd-ordered block index
// with a threshold search; AllTopK here is the standard skyband-pruned
// formulation (the top-k product of any linear preference lies in the
// k-skyband, so per-user selection only scans skyband members), kept as
// the reference the index is tested against.
package topk

import (
	"fmt"
	"sort"

	"mir/internal/geom"
	"mir/internal/par"
)

// Score returns the weighted-sum suitability S(p, w) = w·p of product p for
// a user with weight vector w.
func Score(p, w geom.Vector) float64 { return w.Dot(p) }

// UserPref is a user's preference profile: a weight vector on the unit
// simplex and a personal result size k.
type UserPref struct {
	W geom.Vector
	K int
}

// KthResult identifies a user's top-k-th product.
type KthResult struct {
	Index int     // index into the product slice
	Score float64 // the top-k-th score, i.e. the top-k entry threshold
}

// TopK returns the indices of the k highest-scoring products for weight w,
// in descending score order. Ties break toward the smaller index, making
// results deterministic. It panics if k exceeds the product count.
func TopK(products []geom.Vector, w geom.Vector, k int) []int {
	if k > len(products) {
		panic(fmt.Sprintf("topk: k=%d exceeds |P|=%d", k, len(products)))
	}
	idx := make([]int, len(products))
	scores := make([]float64, len(products))
	for i, p := range products {
		idx[i] = i
		scores[i] = w.Dot(p)
	}
	return SelectTop(idx, scores, k)
}

// SelectTop partitions idx in place and returns its k best entries under
// the engine-wide ranking (scores[i] descending, index ascending), sorted
// in that order. It is the shared partial-selection primitive behind TopK
// and the reverse-influence queries: O(n + k log k) instead of a full
// sort. k is clamped to len(idx); k <= 0 returns an empty prefix.
func SelectTop(idx []int, scores []float64, k int) []int {
	if k > len(idx) {
		k = len(idx)
	}
	if k <= 0 {
		return idx[:0]
	}
	partialSelect(idx, scores, k)
	top := idx[:k]
	sort.Slice(top, func(a, b int) bool {
		if scores[top[a]] != scores[top[b]] {
			return scores[top[a]] > scores[top[b]]
		}
		return top[a] < top[b]
	})
	return top
}

// KthScore returns the top-k-th product (index and score) for weight w.
func KthScore(products []geom.Vector, w geom.Vector, k int) KthResult {
	top := TopK(products, w, k)
	i := top[k-1]
	return KthResult{Index: i, Score: w.Dot(products[i])}
}

// better reports whether product a ranks above product b under scores
// (higher score first, smaller index on ties).
func better(a, b int, scores []float64) bool {
	if scores[a] != scores[b] {
		return scores[a] > scores[b]
	}
	return a < b
}

// partialSelect partitions idx so that its first k entries are the k
// best-ranked products (in arbitrary internal order), using quickselect.
func partialSelect(idx []int, scores []float64, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 1 && k > 0 && k < hi-lo {
		pivot := idx[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for better(idx[i], pivot, scores) {
				i++
			}
			for better(pivot, idx[j], scores) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if lo+k <= j+1 {
			hi = j + 1
		} else if lo+k >= i {
			k -= i - lo
			lo = i
		} else {
			return
		}
	}
}

// Skyband returns the indices of the k-skyband of the product set: the
// products dominated by fewer than k others. The 1-skyband is the skyline.
//
// Implementation: sort-filter-skyband. Products are scanned in descending
// attribute-sum order, so every dominator of a product precedes it; a
// product belongs to the k-skyband iff fewer than k current skyband members
// dominate it (a non-member dominator would imply >= k member dominators).
func Skyband(products []geom.Vector, k int) []int {
	n := len(products)
	order := make([]int, n)
	sums := make([]float64, n)
	for i, p := range products {
		order[i] = i
		sums[i] = p.Sum()
	}
	sort.Slice(order, func(a, b int) bool {
		if sums[order[a]] != sums[order[b]] {
			return sums[order[a]] > sums[order[b]]
		}
		return order[a] < order[b]
	})
	var band []int
	d := 0
	if n > 0 {
		d = len(products[0])
	}
	// Dominance requires q >= p - Eps componentwise, so any dominator of p
	// has attribute sum >= p.Sum() - d*Eps. Band members are appended in
	// descending-sum order, so the dominance scan can stop at the first
	// member whose sum drops below that floor.
	for _, i := range order {
		p := products[i]
		pFloor := sums[i] - float64(d)*geom.Eps
		dominators := 0
		for _, j := range band {
			if sums[j] < pFloor {
				break
			}
			if products[j].Dominates(p) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			band = append(band, i)
		}
	}
	sort.Ints(band)
	return band
}

// Skyline returns the indices of the non-dominated products.
func Skyline(products []geom.Vector) []int { return Skyband(products, 1) }

// AllTopK returns, for every user, the identity and score of that user's
// top-k-th product (with the user's personal k). The computation prunes to
// the kmax-skyband first; per-user work then touches only skyband members.
// It parallelizes across all cores; see AllTopKWorkers for the worker knob.
func AllTopK(products []geom.Vector, users []UserPref) []KthResult {
	return AllTopKWorkers(products, users, 0)
}

// AllTopKWorkers is AllTopK with an explicit worker count (0 = all cores,
// 1 = strictly sequential). The per-user selections are independent, so
// they are fanned across workers in contiguous chunks with each result
// written to its user's slot; the output is identical for every worker
// count. The skyband pruning itself stays sequential — it is a tiny
// fraction of the work and its scan order is semantic.
func AllTopKWorkers(products []geom.Vector, users []UserPref, workers int) []KthResult {
	kmax := 0
	for _, u := range users {
		if u.K > kmax {
			kmax = u.K
		}
		if u.K < 1 {
			panic(fmt.Sprintf("topk: user k=%d < 1", u.K))
		}
	}
	if kmax > len(products) {
		panic(fmt.Sprintf("topk: max k=%d exceeds |P|=%d", kmax, len(products)))
	}
	band := Skyband(products, kmax)
	sub := make([]geom.Vector, len(band))
	for i, j := range band {
		sub[i] = products[j]
	}
	out := make([]KthResult, len(users))
	par.For(len(users), workers, func(ui int) {
		u := users[ui]
		r := KthScore(sub, u.W, u.K)
		out[ui] = KthResult{Index: band[r.Index], Score: r.Score}
	})
	return out
}
