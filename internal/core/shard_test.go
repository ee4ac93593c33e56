package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mir/internal/celltree"
	"mir/internal/geom"
)

func TestEffectiveShards(t *testing.T) {
	cases := []struct {
		opts Options
		want int
	}{
		{Options{}, 1},
		{Options{Shards: 1}, 1},
		{Options{Shards: -3}, 1},
		{Options{Shards: 2}, 2},
		{Options{Shards: 3}, 2},
		{Options{Shards: 4}, 4},
		{Options{Shards: 7}, 4},
		{Options{Shards: 8}, 8},
		{Options{Shards: 9}, 8},
	}
	for _, tc := range cases {
		if got := effectiveShards(tc.opts); got != tc.want {
			t.Errorf("effectiveShards(Shards=%d) = %d, want %d", tc.opts.Shards, got, tc.want)
		}
	}
}

// TestShardBoxesPartition pins the decomposition: 2^j boxes that tile
// [0,1]^d with disjoint interiors, enumerated in bisection-path order,
// each carrying the heap ID of its virtual tree node. The split
// coordinates are data-adaptive, so the invariants are checked against a
// real instance per dimensionality.
func TestShardBoxesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for _, d := range []int{2, 3, 4} {
		inst := randomInstance(t, rng, 300, 24, d, 5)
		m := len(inst.Users) / 2
		for _, shards := range []int{1, 2, 4, 8, 16} {
			boxes := planShards(inst, m, shards)
			if len(boxes) != shards {
				t.Fatalf("d=%d shards=%d: %d boxes", d, shards, len(boxes))
			}
			vol := 0.0
			ids := make(map[int]bool)
			for s, b := range boxes {
				v := 1.0
				for j := 0; j < d; j++ {
					if b.lo[j] >= b.hi[j] || b.lo[j] < 0 || b.hi[j] > 1 {
						t.Fatalf("d=%d shards=%d box %d malformed: lo=%v hi=%v", d, shards, s, b.lo, b.hi)
					}
					v *= b.hi[j] - b.lo[j]
				}
				vol += v
				if ids[b.id] {
					t.Fatalf("d=%d shards=%d: duplicate shard root ID %d", d, shards, b.id)
				}
				ids[b.id] = true
				// Heaviest-first bisection produces uneven depths, but a box
				// never needs more than shards-1 cuts above it, and its ID
				// must sit on the heap level of its own depth.
				if shards > 1 && (b.depth < 1 || b.depth > shards-1) {
					t.Fatalf("d=%d shards=%d box %d: depth %d out of range", d, shards, s, b.depth)
				}
				if b.id < (1<<b.depth)-1 || b.id > (1<<(b.depth+1))-2 {
					t.Fatalf("d=%d shards=%d box %d: ID %d outside heap level %d", d, shards, s, b.id, b.depth)
				}
				// Interior disjointness against every earlier box.
				for r := 0; r < s; r++ {
					overlap := true
					for j := 0; j < d; j++ {
						if boxes[r].hi[j] <= b.lo[j] || b.hi[j] <= boxes[r].lo[j] {
							overlap = false
							break
						}
					}
					if overlap {
						t.Fatalf("d=%d shards=%d: boxes %d and %d overlap", d, shards, r, s)
					}
				}
			}
			if math.Abs(vol-1.0) > 1e-12 {
				t.Fatalf("d=%d shards=%d: total volume %g", d, shards, vol)
			}
		}
	}
}

// TestShardBoxIDsPrefixFree pins the shard ID namespace: every shard
// root ID encodes the box's bisection path, no path is a prefix of
// another (so no shard's subtree of cell IDs can collide with
// another's), and the boxes enumerate in bisection-path (in-order, i.e.
// lexicographic path) order, the order shard regions concatenate in.
func TestShardBoxIDsPrefixFree(t *testing.T) {
	// Reconstruct the root→leaf bit path from a heap ID: child 2i+1 is
	// the low ("0") side, 2i+2 the high ("1") side.
	path := func(b shardBox) string {
		bits := make([]byte, b.depth)
		id := b.id
		for l := b.depth - 1; l >= 0; l-- {
			parent := (id - 1) / 2
			if id == 2*parent+2 {
				bits[l] = '1'
			} else {
				bits[l] = '0'
			}
			id = parent
		}
		return string(bits)
	}
	rng := rand.New(rand.NewSource(88))
	for _, d := range []int{2, 3} {
		inst := randomInstance(t, rng, 300, 24, d, 5)
		m := len(inst.Users) / 2
		for _, shards := range []int{2, 4, 8, 16} {
			boxes := planShards(inst, m, shards)
			paths := make([]string, len(boxes))
			for i, b := range boxes {
				paths[i] = path(b)
				if len(paths[i]) != b.depth {
					t.Fatalf("d=%d shards=%d box %d: path %q does not match depth %d", d, shards, i, paths[i], b.depth)
				}
			}
			for i := range paths {
				for j := range paths {
					if i != j && strings.HasPrefix(paths[j], paths[i]) {
						t.Fatalf("d=%d shards=%d: box %d path %q is a prefix of box %d path %q — their cell-ID subtrees overlap",
							d, shards, i, paths[i], j, paths[j])
					}
				}
			}
			if !sort.StringsAreSorted(paths) {
				t.Fatalf("d=%d shards=%d: boxes not in bisection-path order: %v", d, shards, paths)
			}
		}
	}
}

// TestShardedWorkerByteIdentical is the sharded analogue of the frontier
// identity property: for a fixed shard count, the merged region and all
// algorithmic stats are byte-identical for every worker count.
func TestShardedWorkerByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cases := []struct {
		d, nP, nU, k int
		opts         Options
	}{
		{3, 400, 32, 6, Options{}},
		{3, 400, 32, 6, Options{DisablePruning: true}},
		{2, 300, 40, 5, Options{}},
		{4, 300, 24, 6, Options{}},
	}
	for ci, tc := range cases {
		inst := randomInstance(t, rng, tc.nP, tc.nU, tc.d, tc.k)
		for _, m := range []int{1, tc.nU / 3, tc.nU / 2} {
			if m < 1 {
				m = 1
			}
			for _, shards := range []int{2, 4, 8} {
				refOpts := tc.opts
				refOpts.Shards = shards
				refOpts.Workers = 1
				ref, err := AA(inst, m, refOpts)
				if err != nil {
					t.Fatalf("case %d m=%d shards=%d workers=1: %v", ci, m, shards, err)
				}
				for _, workers := range []int{2, 4, 8} {
					opts := tc.opts
					opts.Shards = shards
					opts.Workers = workers
					got, err := AA(inst, m, opts)
					if err != nil {
						t.Fatalf("case %d m=%d shards=%d workers=%d: %v", ci, m, shards, workers, err)
					}
					regionsIdentical(t, ref, got)
					sa, sb := ref.Stats, got.Stats
					sa.StealCount, sb.StealCount = 0, 0
					sa.MaxFrontier, sb.MaxFrontier = 0, 0
					if sa != sb {
						t.Fatalf("case %d m=%d shards=%d workers=%d: stats diverge:\nw=1 %+v\nw=%d %+v",
							ci, m, shards, workers, sa, workers, sb)
					}
				}
			}
		}
	}
}

// TestShardsOneIsSingleTree pins that Shards <= 1 selects the
// historical single-tree path, byte for byte — region, stats (shard
// counters zero), and scheduler profile presence included.
func TestShardsOneIsSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	inst := randomInstance(t, rng, 400, 32, 3, 6)
	m := 16
	base, err := AA(inst, m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.ShardHalfspaces != 0 || base.Stats.PrescreenedOut != 0 {
		t.Fatalf("single-tree run has shard counters: %+v", base.Stats)
	}
	for _, opts := range []Options{
		{Workers: 1, Shards: 1},
		{Workers: 1, Shards: 0},
	} {
		got, err := AA(inst, m, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		regionsIdentical(t, base, got)
		if base.Stats != got.Stats {
			t.Fatalf("%+v: stats diverge from single-tree run:\nbase %+v\ngot  %+v",
				opts, base.Stats, got.Stats)
		}
	}
}

// TestShardedRegionPointSetEquivalent verifies that every shard count
// computes the same region as a point set: each merged region satisfies
// the coverage oracle, agrees with the unsharded region on sampled
// points, and (at d=2) has the same area. The cell decompositions differ
// by construction — shard boundaries are axis-aligned cuts the unsharded
// arrangement never makes — which is exactly why the equivalence is
// pinned geometrically rather than structurally.
func TestShardedRegionPointSetEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	cases := []struct {
		d, nP, nU, k, m int
	}{
		{2, 300, 40, 5, 13},
		{3, 400, 32, 6, 16},
		{3, 400, 32, 6, 1},
		{4, 300, 24, 6, 12},
	}
	for ci, tc := range cases {
		inst := randomInstance(t, rng, tc.nP, tc.nU, tc.d, tc.k)
		base, err := AA(inst, tc.m, Options{Workers: 1})
		if err != nil {
			t.Fatalf("case %d unsharded: %v", ci, err)
		}
		for _, shards := range []int{2, 4, 8} {
			got, err := AA(inst, tc.m, Options{Workers: 1, Shards: shards})
			if err != nil {
				t.Fatalf("case %d shards=%d: %v", ci, shards, err)
			}
			checkRegionOracle(t, inst, tc.m, got, rng, 300)
			sameRegion(t, inst, base, got, rng, 300)
			if tc.d == 2 {
				a, b := base.Area2D(), got.Area2D()
				if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(a)) {
					t.Fatalf("case %d shards=%d: area %g vs unsharded %g", ci, shards, b, a)
				}
			}
		}
	}
}

// TestShardedCounters pins the prescreen accounting: over all shards the
// classified halfspaces partition into survivors and absorbed ones
// (ShardHalfspaces + PrescreenedOut == Shards × |U|), the prescreen
// absorbs a nonzero fraction once the decomposition is fine enough
// (shards >= 4 — a single work-balanced cut can leave every boundary
// crossing both halves), and every merged cell lies inside some shard
// box.
func TestShardedCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	inst := randomInstance(t, rng, 400, 32, 3, 6)
	nU := len(inst.Users)
	m := 16
	for _, shards := range []int{2, 4, 8} {
		reg, err := AA(inst, m, Options{Workers: 1, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		total := reg.Stats.ShardHalfspaces + reg.Stats.PrescreenedOut
		if total != int64(shards*nU) {
			t.Fatalf("shards=%d: ShardHalfspaces %d + PrescreenedOut %d = %d, want %d",
				shards, reg.Stats.ShardHalfspaces, reg.Stats.PrescreenedOut, total, shards*nU)
		}
		if shards >= 4 && reg.Stats.PrescreenedOut == 0 {
			t.Fatalf("shards=%d: prescreen absorbed nothing", shards)
		}
		boxes := planShards(inst, m, shards)
		for i, mbb := range reg.MBBs {
			inSome := false
			for _, b := range boxes {
				ok := true
				for j := 0; j < inst.Dim; j++ {
					if mbb[0][j] < b.lo[j]-1e-9 || mbb[1][j] > b.hi[j]+1e-9 {
						ok = false
						break
					}
				}
				if ok {
					inSome = true
					break
				}
			}
			if !inSome {
				t.Fatalf("shards=%d: cell %d MBB %v..%v not contained in any shard box",
					shards, i, mbb[0], mbb[1])
			}
		}
	}
}

// TestShardRootIDsNamespaced pins that shard-local cell IDs inherit the
// shard root's virtual-path prefix: the merged forest's root IDs are the
// heap numbers of the bisection tree's level, so IDs are globally unique
// across shards for a fixed shard count.
func TestShardRootIDsNamespaced(t *testing.T) {
	box := geom.NewBoxCorners(geom.Vector{0, 0}, geom.Vector{0.5, 1})
	tr := celltree.NewRooted(box, 3, 2)
	if tr.Root.ID != 3 || tr.Root.Depth != 2 {
		t.Fatalf("NewRooted root = {ID %d, Depth %d}, want {3, 2}", tr.Root.ID, tr.Root.Depth)
	}
	if tr.Stats.MaxDepth != 2 {
		t.Fatalf("NewRooted MaxDepth = %d, want 2", tr.Stats.MaxDepth)
	}
	lo, hi, ok := box.MBB()
	if !ok || lo[0] != 0 || hi[0] != 0.5 {
		t.Fatalf("NewRooted box MBB = %v..%v ok=%v", lo, hi, ok)
	}
}
