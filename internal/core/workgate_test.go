package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// The work gates bound the deterministic work an AA build and a
// maintenance event do, over small fixed instances at Workers: 1, against
// constants measured at commit caf8014 unless a row says otherwise.
// Counters such as pivots, LP calls and touched leaves are the same on
// every host, so a gate that trips means the program changed, not the
// machine; wall time is left to perfbench. The allocation half of each
// gate is in workgate_allocs_test.go, which race builds skip: under -race
// sync.Pool drops Puts at random. Both halves read one cached
// measurement.

// workCeiling is how far a gated counter may grow over its constant.
// The counters are exact at Workers: 1, so the margin is pure headroom.
const workCeiling = 1.10

// checkCeiling fails t when got exceeds workCeiling times want, naming
// the row, the observed value and the limit. Under -v it logs every
// observation, which is how the constants are re-measured.
func checkCeiling(t *testing.T, row, counter string, got, want float64) {
	t.Helper()
	limit := want * workCeiling
	t.Logf("%s: %.1f %s (constant %.1f)", row, got, counter, want)
	if got > limit {
		t.Errorf("%s: %.1f %s, limit %.1f (%.2fx of the constant %.1f)",
			row, got, counter, limit, workCeiling, want)
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// aaGateRow is one AA build of the work gate: IND/COR/ANTI products,
// |P|=2000, 40 clustered users, d=3, k=10, m=20. Each dataset has two
// rows, with and without split-time pruning. Every solve starts cold: the
// pruned rows' pivot constants were measured at caf8014 and the unpruned
// rows' at fc02b7b, both with warm starts off. Pivots alone cannot see
// pruning stop: unpruned builds run fewer pivots than pruned ones, yet
// their wider tableaus make AA far slower. The mean H-representation
// rows per leaf can see it; their constants were measured at 91c14bb.
type aaGateRow struct {
	dataset     string
	pruning     bool
	pivots      int64   // Stats.Pivots
	rowsPerLeaf float64 // mean len(leaf.Polytope().Hs) over the leaves
}

func (r aaGateRow) String() string {
	return fmt.Sprintf("AA %s pruning=%v", r.dataset, r.pruning)
}

var aaGateRows = []aaGateRow{
	{"IND", true, 903615, 11.81},
	{"IND", false, 816381, 21.10},
	{"COR", true, 592784, 11.81},
	{"COR", false, 447658, 20.89},
	{"ANTI", true, 182344, 11.50},
	{"ANTI", false, 148260, 19.49},
}

// gateProducts draws |P| products of the named distribution.
func gateProducts(rng *rand.Rand, dataset string, n, d int) []geom.Vector {
	switch dataset {
	case "COR":
		return data.Correlated(rng, n, d)
	case "ANTI":
		return data.AntiCorrelated(rng, n, d)
	default:
		return data.Independent(rng, n, d)
	}
}

// aaGateRun is one measured row: the build's Stats, its allocations and
// the mean H-representation rows of its leaves.
type aaGateRun struct {
	stats       Stats
	allocs      uint64
	rowsPerLeaf float64
}

// aaGateRuns builds every row once per test binary.
var aaGateRuns = sync.OnceValues(func() ([]aaGateRun, error) {
	const nP, nU, d, k = 2000, 40, 3, 10
	insts := map[string]*Instance{}
	runs := make([]aaGateRun, len(aaGateRows))
	for i, row := range aaGateRows {
		inst := insts[row.dataset]
		if inst == nil {
			rng := rand.New(rand.NewSource(101))
			ps := gateProducts(rng, row.dataset, nP, d)
			us := data.WithK(data.ClusteredUsers(rng, nU, d, 5, 0.05), k)
			var err error
			if inst, err = NewInstance(ps, us); err != nil {
				return nil, err
			}
			insts[row.dataset] = inst
		}
		opts := Options{Workers: 1, DisablePruning: !row.pruning}
		before := mallocs()
		run, err := runAA(inst, nU/2, opts)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", row, err)
		}
		reg := run.region()
		allocs := mallocs() - before
		// Read after the allocation window, which holds AA's own work
		// only: Polytope may build a leaf's representation lazily.
		leaves := run.tr.Leaves(nil, nil)
		rows := 0
		for _, leaf := range leaves {
			rows += len(leaf.Polytope().Hs)
		}
		runs[i] = aaGateRun{
			stats:       reg.Stats,
			allocs:      allocs,
			rowsPerLeaf: float64(rows) / float64(len(leaves)),
		}
	}
	return runs, nil
})

// TestAAWorkGate bounds each row's simplex pivots and its mean
// H-representation rows per leaf.
func TestAAWorkGate(t *testing.T) {
	runs, err := aaGateRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range aaGateRows {
		checkCeiling(t, row.String(), "pivots", float64(runs[i].stats.Pivots), float64(row.pivots))
		checkCeiling(t, row.String(), "rows/leaf", runs[i].rowsPerLeaf, row.rowsPerLeaf)
	}
}

// sessionScript builds a reproducible session stream over a finite user
// pool, the standing regime the maintainer is built for. Arrivals bring a
// random offline pool member back online, with its weights and k;
// departures take a random online one; the population stays within ±2
// of nU. The balance keeps the population near the level m was chosen
// for, and the finite pool keeps the halfspace geometry recurrent, so the
// arrangement converges instead of growing with every event.
func sessionScript(rng *rand.Rand, pool []topk.UserPref, nU, steps int) []Event {
	events := make([]Event, 0, steps)
	online := make([]int, nU)  // pool indices currently resident
	handles := make([]int, nU) // their maintainer handles, parallel
	for i := range online {
		online[i] = i
		handles[i] = i
	}
	offline := make([]int, 0, len(pool)-nU)
	for i := nU; i < len(pool); i++ {
		offline = append(offline, i)
	}
	next := nU
	for len(events) < steps {
		arrive := rng.Intn(2) == 0
		if len(offline) == 0 || len(online) >= nU+2 {
			arrive = false
		} else if len(online) <= nU-2 {
			arrive = true
		}
		if arrive {
			j := rng.Intn(len(offline))
			pi := offline[j]
			offline = append(offline[:j], offline[j+1:]...)
			u := pool[pi]
			events = append(events, Event{Kind: EventArrive,
				User: topk.UserPref{W: append(geom.Vector(nil), u.W...), K: u.K}})
			online = append(online, pi)
			handles = append(handles, next)
			next++
		} else {
			i := rng.Intn(len(online))
			events = append(events, Event{Kind: EventDepart, Handle: handles[i]})
			offline = append(offline, online[i])
			online = append(online[:i], online[i+1:]...)
			handles = append(handles[:i], handles[i+1:]...)
		}
	}
	return events
}

// standingGateRow is one mode of the standing work gate: ANTI products,
// |P|=2000, d=3, k=10, 40 residents from a 50-user clustered pool, m=20.
// A batched warm-up of 120 events reaches the steady state uncounted; the
// gate then counts 120 events, one per ApplyBatch, because per-event
// cost is what routing makes sublinear. The constants are per event:
// touched leaves as measured at caf8014, containment tests re-measured
// once staging stopped re-classifying pending users, and pivots measured
// at fc02b7b with warm starts off (they were 3505.8 and 3509.2 warm: the
// rise is the saving of the deleted warm-start path, which moved no wall
// time).
type standingGateRow struct {
	routed                   bool
	leaves, contains, pivots float64
}

func (r standingGateRow) String() string {
	return fmt.Sprintf("standing ANTI routed=%v", r.routed)
}

var standingGateRows = []standingGateRow{
	{true, 395.55, 963.0, 16263.0},
	{false, 3648.33, 963.2, 16259.9},
}

// standingLocalityFloor is how many times fewer leaves a routed event
// must touch than a swept one on the gate's stream (9.22x at caf8014).
const standingLocalityFloor = 5.0

// standingGateRun is one measured mode: its counters per counted event,
// and the count desyncs of the whole stream.
type standingGateRun struct {
	leaves, contains, pivots, allocs float64
	desyncs                          int64
}

const (
	standingWarmup = 120
	standingEvents = 120
	standingBatch  = 12 // warm-up events per ApplyBatch
)

// standingGateRuns drives both modes over the same stream once per test
// binary.
var standingGateRuns = sync.OnceValues(func() ([]standingGateRun, error) {
	const nP, nU, d, k = 2000, 40, 3, 10
	rng := rand.New(rand.NewSource(12))
	ps := data.AntiCorrelated(rng, nP, d)
	pool := data.WithK(data.ClusteredUsers(rng, nU+nU/4, d, 5, 0.05), k)
	events := sessionScript(rng, pool, nU, standingWarmup+standingEvents)
	runs := make([]standingGateRun, len(standingGateRows))
	for i, row := range standingGateRows {
		opts := Options{Workers: 1, DisableRouting: !row.routed}
		inst, err := NewInstanceOpts(ps, deepCopyUsers(pool[:nU]), opts)
		if err != nil {
			return nil, err
		}
		mt, err := NewMaintainer(inst, nU/2, opts)
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < standingWarmup; lo += standingBatch {
			if _, err := mt.ApplyBatch(events[lo:min(lo+standingBatch, standingWarmup)]); err != nil {
				return nil, fmt.Errorf("%v: warm-up: %w", row, err)
			}
		}
		st0 := mt.Region().Stats
		before := mallocs()
		for e := standingWarmup; e < len(events); e++ {
			if _, err := mt.ApplyBatch(events[e : e+1]); err != nil {
				return nil, fmt.Errorf("%v: event %d: %w", row, e, err)
			}
		}
		allocs := mallocs() - before
		st1 := mt.Region().Stats
		runs[i] = standingGateRun{
			leaves:   float64(st1.RoutedLeaves-st0.RoutedLeaves) / standingEvents,
			contains: float64(st1.ContainmentTests-st0.ContainmentTests) / standingEvents,
			pivots:   float64(st1.Pivots-st0.Pivots) / standingEvents,
			allocs:   float64(allocs) / standingEvents,
			desyncs:  st1.CountDesyncs,
		}
	}
	return runs, nil
})

// TestStandingWorkGate is the standing path's throughput guard. Per
// event, each mode's touched leaves, containment tests and pivots stay
// under their ceilings; routed events touch at least
// standingLocalityFloor times fewer leaves than swept ones; and neither
// mode desynchronizes a leaf's counts.
func TestStandingWorkGate(t *testing.T) {
	runs, err := standingGateRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range standingGateRows {
		run := runs[i]
		checkCeiling(t, row.String(), "touched leaves/event", run.leaves, row.leaves)
		checkCeiling(t, row.String(), "containment tests/event", run.contains, row.contains)
		checkCeiling(t, row.String(), "pivots/event", run.pivots, row.pivots)
		if run.desyncs != 0 {
			t.Errorf("%v: %d count desyncs, want 0", row, run.desyncs)
		}
	}
	routed, swept := runs[0].leaves, runs[1].leaves
	t.Logf("standing ANTI: swept/routed touched leaves %.2fx", swept/routed)
	if routed*standingLocalityFloor > swept {
		t.Errorf("standing ANTI: routed touches %.1f leaves/event, swept %.1f: %.2fx, floor %.1fx",
			routed, swept, swept/routed, standingLocalityFloor)
	}
}
