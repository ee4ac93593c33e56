// Package core implements the paper's algorithms for the m-impact region
// problem (mIR) and the standing top-k influence problems it solves:
//
//   - NVE: the naïve algorithm (Section 4.1) — intersect the influential
//     halfspaces of every m-sized user subset.
//   - BSL: the baseline (Section 4.2) — build the halfspace arrangement
//     incrementally with early reporting and early elimination.
//   - AA: the advanced approach (Section 5) — group users by common
//     top-k-th product, exploit convex-hull batch tests (Lemmas 3/4),
//     inner-group processing with delayed insertion, MBB filter-and-refine
//     fast tests, individualized cell partitioning, and a specialized
//     two-dimensional insertion (Lemmas 5/6).
//   - CO / IS / budgeted CO / thresholded IS adaptations (Section 5.5).
package core

import (
	"errors"
	"fmt"
	"math"

	"mir/internal/geom"
	"mir/internal/par"
	"mir/internal/topk"
)

// Errors returned by input validation.
var (
	ErrNoUsers     = errors.New("core: empty user set")
	ErrNoProducts  = errors.New("core: empty product set")
	ErrBadM        = errors.New("core: m must satisfy 1 <= m <= |U|")
	ErrBadK        = errors.New("core: every user k must satisfy 1 <= k <= |P|")
	ErrDimMismatch = errors.New("core: product and user dimensionalities differ")
	ErrNonFinite   = errors.New("core: product attributes and user weights must be finite")
	// ErrNegativeWeight rejects a negative user weight: the MBB-corner
	// dominance test of Lemmas 3/4 and the top-k index's block bounds
	// both hold only for w >= 0.
	ErrNegativeWeight = errors.New("core: user weights must be non-negative")
	// ErrZeroWeight rejects a user whose weights are all zero: the
	// halfspace 0·x >= 0 covers all of product space, and WProj would
	// place the user at the simplex vertex e_d, so the Lemma 3/4 hull
	// tests would treat it as a different user.
	ErrZeroWeight = errors.New("core: user weights must not all be zero")
)

// firstNonFinite returns the index of the first NaN or ±Inf in v, or -1.
func firstNonFinite(v []float64) int {
	for j, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return j
		}
	}
	return -1
}

// firstNegative returns the index of the first negative entry of v, or -1.
func firstNegative(v []float64) int {
	for j, x := range v {
		if x < 0 {
			return j
		}
	}
	return -1
}

// allZero reports whether every entry of v is zero (either sign).
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Instance is a validated, preprocessed mIR problem: the products, users,
// every user's influential halfspace, and the user groups of Section 5.1.
type Instance struct {
	Products []geom.Vector
	Users    []topk.UserPref
	Dim      int

	// Kth[i] identifies user i's top-k-th product (personal k).
	Kth []topk.KthResult
	// HS[i] is user i's influential halfspace {p : w_i·p >= S^k_{w_i}}.
	// All normal vectors are rows of the contiguous wFlat backing, so the
	// halfspace scans (classification, coverage counting) walk memory
	// sequentially instead of chasing per-user heap vectors.
	HS []geom.Halfspace
	// WProj[i] is user i's weight vector projected to the (d-1)-dimensional
	// weight space (the simplex constraint makes the last coordinate
	// redundant); hull computations run in this space. Each is a prefix of
	// the corresponding wFlat row.
	WProj []geom.Vector
	// Groups partitions users by their top-k-th product.
	Groups []*Group

	// TopKIndex is the shared all-top-k product index: the
	// preprocessing answers every user's threshold from it, and the
	// dynamic path (Maintainer.AddUser) reuses it for arriving users
	// instead of scanning the full product set. Immutable under queries.
	TopKIndex *topk.Index
	// Prep records the preprocessing search effort of the indexed
	// all-top-k.
	Prep topk.SearchStats

	// wFlat is the row-major |U|×d backing of the halfspace normals.
	wFlat []float64
}

// NewInstance validates the inputs and performs the all-top-k
// preprocessing: every user's top-k-th product, influential halfspace, and
// group assignment. The preprocessing fans across all cores; see
// NewInstanceWorkers for the worker knob.
func NewInstance(products []geom.Vector, users []topk.UserPref) (*Instance, error) {
	return NewInstanceWorkers(products, users, 0)
}

// NewInstanceWorkers is NewInstance with an explicit worker count
// (0 = all cores, 1 = strictly sequential); see NewInstanceOpts.
func NewInstanceWorkers(products []geom.Vector, users []topk.UserPref, workers int) (*Instance, error) {
	return NewInstanceOpts(products, users, Options{Workers: workers})
}

// NewInstanceOpts is NewInstance with full algorithm options. Three
// preprocessing stages parallelize under opts.Workers: the per-user
// all-top-k selection, the per-user halfspace and weight-projection
// construction, and the per-group convex-hull precomputation in
// projected weight space (the hulls that power AA's Lemma 3/4 batch
// tests). Every stage writes to index-addressed slots, so the resulting
// Instance is identical for every worker count.
//
// The all-top-k step runs through the product index (Kth
// results are byte-identical to the skyband scan topk.AllTopKWorkers);
// the built index stays on the Instance for the dynamic path to reuse.
//
// Validation rejects NaN and ±Inf product attributes and user weights
// with ErrNonFinite, negative user weights with ErrNegativeWeight and
// all-zero weight vectors with ErrZeroWeight, next to the dimension and
// k checks.
//
// After construction the Instance is read-only for query execution: AA
// runs (and therefore concurrent Analyzer queries) only read it.
func NewInstanceOpts(products []geom.Vector, users []topk.UserPref, opts Options) (*Instance, error) {
	if len(products) == 0 {
		return nil, ErrNoProducts
	}
	if len(users) == 0 {
		return nil, ErrNoUsers
	}
	d := len(products[0])
	for i, p := range products {
		if len(p) != d {
			return nil, fmt.Errorf("%w: product %d has %d attributes, want %d",
				ErrDimMismatch, i, len(p), d)
		}
		if j := firstNonFinite(p); j >= 0 {
			return nil, fmt.Errorf("%w: product %d attribute %d is %v", ErrNonFinite, i, j, p[j])
		}
	}
	for i, u := range users {
		if len(u.W) != d {
			return nil, fmt.Errorf("%w: user %d has %d weights, want %d",
				ErrDimMismatch, i, len(u.W), d)
		}
		if j := firstNonFinite(u.W); j >= 0 {
			return nil, fmt.Errorf("%w: user %d weight %d is %v", ErrNonFinite, i, j, u.W[j])
		}
		if j := firstNegative(u.W); j >= 0 {
			return nil, fmt.Errorf("%w: user %d weight %d is %v", ErrNegativeWeight, i, j, u.W[j])
		}
		if allZero(u.W) {
			return nil, fmt.Errorf("%w: user %d", ErrZeroWeight, i)
		}
		if u.K < 1 || u.K > len(products) {
			return nil, fmt.Errorf("%w: user %d has k=%d (|P|=%d)",
				ErrBadK, i, u.K, len(products))
		}
	}

	workers := opts.Workers
	inst := &Instance{
		Products:  products,
		Users:     users,
		Dim:       d,
		TopKIndex: topk.NewIndex(products),
	}
	inst.Kth, inst.Prep = inst.TopKIndex.AllTopKWorkers(users, workers)
	inst.HS = make([]geom.Halfspace, len(users))
	inst.WProj = make([]geom.Vector, len(users))
	inst.wFlat = make([]float64, len(users)*d)
	par.For(len(users), workers, func(i int) {
		// Copy the user's weights into the instance's contiguous backing;
		// the capped three-index slice keeps rows from growing into their
		// neighbors.
		row := geom.Vector(inst.wFlat[i*d : (i+1)*d : (i+1)*d])
		copy(row, users[i].W)
		inst.HS[i] = geom.Halfspace{W: row, T: inst.Kth[i].Score}
		if d > 1 {
			inst.WProj[i] = row[: d-1 : d-1]
		} else {
			inst.WProj[i] = row
		}
	})
	inst.Groups = buildGroups(inst)
	// Precompute each group's weight-space hull (one LP per member for
	// d > 2) so queries start with the Lemma 3/4 vertex sets ready instead
	// of computing them lazily on the hot path.
	par.For(len(inst.Groups), workers, func(i int) {
		g := inst.Groups[i]
		g.Hull = hullPositionsOf(inst, g.Members)
	})
	return inst, nil
}

// CheckM validates an m value against the instance.
func (inst *Instance) CheckM(m int) error {
	if m < 1 || m > len(inst.Users) {
		return fmt.Errorf("%w: m=%d, |U|=%d", ErrBadM, m, len(inst.Users))
	}
	return nil
}

// CountCovering returns the number of users whose top-k result a
// (hypothetical) product at point p would enter — the brute-force coverage
// oracle used for verification and by the public API.
func (inst *Instance) CountCovering(p geom.Vector) int { return countCovering(inst.HS, p) }

// MinBoundaryGap returns the smallest |w_i·p - t_i| over all users: the
// distance (in score units) of p from the nearest top-k entry boundary.
// Sampling-based tests use it to skip points too close to a boundary for
// float comparisons to be meaningful. With no users there is no boundary
// and the gap is +Inf (the identity of min).
func (inst *Instance) MinBoundaryGap(p geom.Vector) float64 { return minBoundaryGap(inst.HS, p) }

// countCovering returns how many of the halfspaces contain p.
func countCovering(hs []geom.Halfspace, p geom.Vector) int {
	n := 0
	for _, h := range hs {
		if h.Contains(p) {
			n++
		}
	}
	return n
}

// minBoundaryGap returns the smallest |w·p - t| over the halfspaces, +Inf
// when there are none.
func minBoundaryGap(hs []geom.Halfspace, p geom.Vector) float64 {
	best := math.Inf(1)
	for _, h := range hs {
		g := h.Eval(p)
		if g < 0 {
			g = -g
		}
		if g < best {
			best = g
		}
	}
	return best
}

// Influence pairs a product with its reverse top-k cardinality.
type Influence struct {
	Product  int
	Coverage int
}

// MostInfluential returns the n products contained in the most of the
// halfspaces hs — the largest reverse top-k sets over the users hs
// belongs to — coverage descending with ties toward the smaller product
// index. ix is the products' top-k index.
//
// Counting runs user-major through the index (Searcher.AtLeast): each
// user's influential products are exactly {p : w·p >= t_i - Eps}, so the
// index enumerates them with superblock/block bound pruning instead of
// |P|·|U| dot products. The index threshold is slackened by an extra Eps
// and every hit rechecked with the halfspace's own Contains, so the
// counts (and therefore the returned ranking) are byte-identical to a
// full |P|·|U| coverage scan regardless of rounding differences between
// the two evaluation orders. Safe for concurrent use: the index is
// immutable and each call allocates its own Searcher.
func MostInfluential(ix *topk.Index, products []geom.Vector, hs []geom.Halfspace, n int) []Influence {
	if n > len(products) {
		n = len(products)
	}
	if n <= 0 {
		return nil
	}
	counts := make([]int, len(products))
	s := topk.NewSearcher(ix)
	var buf []int
	for _, h := range hs {
		buf = s.AtLeast(h.W, h.T-2*geom.Eps, buf[:0])
		for _, pi := range buf {
			if h.Contains(products[pi]) {
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
		out[i] = Influence{Product: pi, Coverage: counts[pi]}
	}
	return out
}
