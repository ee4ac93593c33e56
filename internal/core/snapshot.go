package core

import (
	"math"

	"mir/internal/geom"
	"mir/internal/topk"
)

// MaintSnapshot is an immutable capture of a Maintainer's state. The
// Maintainer itself is single-threaded; a snapshot decouples readers from
// it — any number of goroutines may query a snapshot concurrently while
// the Maintainer keeps mutating, because everything the snapshot holds is
// either freshly built (the region's polytopes, the alive bitmap) or
// write-once for the run (product rows, halfspace entries).
type MaintSnapshot struct {
	region   *Region
	numUsers int
	products []geom.Vector
	hs       []geom.Halfspace
	alive    []bool
}

// Snapshot captures the Maintainer's current region and population for
// concurrent reading. The caller must not invoke it concurrently with
// AddUser/RemoveUser/ApplyBatch (the Maintainer stays single-threaded);
// the returned snapshot, however, is safe to read from any goroutine.
func (mt *Maintainer) Snapshot() *MaintSnapshot {
	return &MaintSnapshot{
		region:   mt.run.region(),
		numUsers: mt.nAlive,
		products: mt.run.inst.Products,
		hs:       append([]geom.Halfspace(nil), mt.run.inst.HS...),
		alive:    append([]bool(nil), mt.alive...),
	}
}

// Region returns the snapshot's m-impact region.
func (s *MaintSnapshot) Region() *Region { return s.region }

// NumUsers returns the alive population size at capture time.
func (s *MaintSnapshot) NumUsers() int { return s.numUsers }

// CountCovering returns how many alive users a product at p would cover.
func (s *MaintSnapshot) CountCovering(p geom.Vector) int {
	n := 0
	for i := range s.hs {
		if s.alive[i] && s.hs[i].Contains(p) {
			n++
		}
	}
	return n
}

// MinBoundaryGap mirrors Maintainer.MinBoundaryGap at capture time,
// including its empty-population contract: +Inf when no users are alive.
func (s *MaintSnapshot) MinBoundaryGap(p geom.Vector) float64 {
	best := math.Inf(1)
	for i := range s.hs {
		if !s.alive[i] {
			continue
		}
		g := s.hs[i].Eval(p)
		if g < 0 {
			g = -g
		}
		if g < best {
			best = g
		}
	}
	return best
}

// Influence pairs a product with its reverse top-k cardinality over the
// snapshot's alive population.
type Influence struct {
	Product  int
	Coverage int
}

// MostInfluential returns the n products with the largest alive-user
// reverse top-k sets, coverage descending with ties toward the smaller
// product index, selected with the shared top-k partial selection.
func (s *MaintSnapshot) MostInfluential(n int) []Influence {
	if n > len(s.products) {
		n = len(s.products)
	}
	if n <= 0 {
		return nil
	}
	counts := make([]int, len(s.products))
	for i := range s.hs {
		if !s.alive[i] {
			continue
		}
		for pi, p := range s.products {
			if s.hs[i].Contains(p) {
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
