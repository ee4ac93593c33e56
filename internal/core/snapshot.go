package core

import (
	"mir/internal/geom"
	"mir/internal/topk"
)

// MaintSnapshot is an immutable capture of a Maintainer's state. The
// Maintainer itself is single-threaded; a snapshot decouples readers from
// it — any number of goroutines may query a snapshot concurrently while
// the Maintainer keeps mutating, because everything the snapshot holds is
// either freshly built (the region's polytopes, the alive halfspace list)
// or immutable for the run (product rows, the top-k index, halfspace
// normals).
type MaintSnapshot struct {
	region   *Region
	products []geom.Vector
	index    *topk.Index
	hs       []geom.Halfspace // alive users'
}

// Snapshot captures the Maintainer's current region and population for
// concurrent reading. The caller must not invoke it concurrently with
// AddUser/RemoveUser/ApplyBatch (the Maintainer stays single-threaded);
// the returned snapshot, however, is safe to read from any goroutine.
func (mt *Maintainer) Snapshot() *MaintSnapshot {
	return &MaintSnapshot{
		region:   mt.run.region(),
		products: mt.run.inst.Products,
		index:    mt.run.inst.TopKIndex,
		hs:       mt.aliveHS(),
	}
}

// Region returns the snapshot's m-impact region.
func (s *MaintSnapshot) Region() *Region { return s.region }

// NumUsers returns the alive population size at capture time.
func (s *MaintSnapshot) NumUsers() int { return len(s.hs) }

// CountCovering returns how many alive users a product at p would cover.
func (s *MaintSnapshot) CountCovering(p geom.Vector) int { return countCovering(s.hs, p) }

// MinBoundaryGap mirrors Maintainer.MinBoundaryGap at capture time,
// including its empty-population contract: +Inf when no users are alive.
func (s *MaintSnapshot) MinBoundaryGap(p geom.Vector) float64 { return minBoundaryGap(s.hs, p) }

// MostInfluential returns the n products with the largest alive-user
// reverse top-k sets at capture time (see MostInfluential).
func (s *MaintSnapshot) MostInfluential(n int) []Influence {
	return MostInfluential(s.index, s.products, s.hs, n)
}
