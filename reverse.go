package mir

import (
	"fmt"

	"mir/internal/core"
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
// the mIR preprocessing: the counting runs user-major through the
// instance's layered top-k index (core.MostInfluential), and the counts
// are byte-identical to a full |P|·|U| coverage scan.
func (a *Analyzer) MostInfluential(n int) []Influence {
	top := core.MostInfluential(a.inst.TopKIndex, a.inst.Products, a.inst.HS, n)
	if top == nil {
		return nil
	}
	out := make([]Influence, len(top))
	for i, in := range top {
		out[i] = Influence{ProductIndex: in.Product, Coverage: in.Coverage}
	}
	return out
}
