package mir

import (
	"fmt"

	"mir/internal/geom"
	"mir/internal/topk"
)

// ReverseTopK returns the users covered by the product at productIndex —
// the reverse top-k query of Vlachou et al., which the preprocessed
// instance answers by a scan of the influential-halfspace thresholds: a
// user holds the product in her top-k iff the product's score meets her
// top-k-th score.
func (a *Analyzer) ReverseTopK(productIndex int) ([]int, error) {
	if productIndex < 0 || productIndex >= len(a.inst.Products) {
		return nil, fmt.Errorf("mir: product index %d out of range [0,%d)",
			productIndex, len(a.inst.Products))
	}
	p := a.inst.Products[productIndex]
	var out []int
	for ui, h := range a.inst.HS {
		if h.Contains(p) {
			out = append(out, ui)
		}
	}
	return out, nil
}

// Influence is a product together with its reverse top-k cardinality.
type Influence struct {
	ProductIndex int
	Coverage     int
}

// MostInfluential returns the n products with the largest reverse top-k
// sets (ties broken toward the smaller index) — the "most influential
// data objects" query of the reverse top-k literature, answered here from
// the mIR preprocessing.
// Coverage descends, ties break toward the smaller index.
//
// Counting runs user-major through the instance's layered top-k index
// (Searcher.AtLeast) — each user's influential products are exactly
// {p : w·p >= t_i - Eps}, so the index enumerates them with
// superblock/block bound pruning instead of |P|·|U| dot products. The
// index threshold is slackened by an extra Eps and every hit rechecked
// with the halfspace's own Contains, so the counts (and therefore the
// returned ranking) are byte-identical to a full |P|·|U| coverage scan
// regardless of rounding differences between the two evaluation orders.
func (a *Analyzer) MostInfluential(n int) []Influence {
	if n > len(a.inst.Products) {
		n = len(a.inst.Products)
	}
	if n <= 0 {
		return nil
	}
	counts := make([]int, len(a.inst.Products))
	// A Searcher is not safe for concurrent use and Analyzer is documented
	// concurrent-safe, so allocate one per call. The index is immutable,
	// so its ids are product indices.
	s := topk.NewSearcher(a.inst.TopKIndex)
	var buf []int
	for _, h := range a.inst.HS {
		buf = s.AtLeast(h.W, h.T-2*geom.Eps, buf[:0])
		for _, pi := range buf {
			if h.Contains(a.inst.Products[pi]) {
				counts[pi]++
			}
		}
	}
	idx := make([]int, len(counts))
	scores := make([]float64, len(counts))
	for i, c := range counts {
		idx[i] = i
		scores[i] = float64(c)
	}
	top := topk.SelectTop(idx, scores, n)
	out := make([]Influence, len(top))
	for i, pi := range top {
		out[i] = Influence{ProductIndex: pi, Coverage: counts[pi]}
	}
	return out
}
