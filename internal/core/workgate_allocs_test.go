//go:build !race

package core

import "testing"

// Allocation ceilings of the work gates in workgate_test.go, measured at
// commit caf8014 except where noted. Race builds skip this file: under
// -race sync.Pool drops Puts at random, so allocation counts stop being
// repeatable.

// aaGateAllocs parallels aaGateRows: heap allocations of each build. The
// pruned rows were measured at caf8014 with warm starts off, the unpruned
// rows at fc02b7b with warm starts off.
var aaGateAllocs = []float64{
	39303, 39356, // IND
	32595, 32617, // COR
	12278, 12285, // ANTI
}

// standingGateAllocs parallels standingGateRows: allocations per event,
// measured at fc02b7b with warm starts off.
var standingGateAllocs = []float64{144.7, 198.6}

// TestAAAllocGate bounds each AA gate row's allocations.
func TestAAAllocGate(t *testing.T) {
	runs, err := aaGateRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range aaGateRows {
		checkCeiling(t, row.String(), "allocs", float64(runs[i].allocs), aaGateAllocs[i])
	}
}

// TestStandingAllocGate bounds each standing gate mode's allocations per
// event.
func TestStandingAllocGate(t *testing.T) {
	runs, err := standingGateRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range standingGateRows {
		checkCeiling(t, row.String(), "allocs/event", runs[i].allocs, standingGateAllocs[i])
	}
}
