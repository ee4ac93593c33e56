//go:build !race

package core

import "testing"

// Allocation ceilings of the work gates in workgate_test.go, measured at
// commit caf8014. Race builds skip this file: under -race sync.Pool drops
// Puts at random, so allocation counts stop being repeatable.

// aaGateAllocs parallels aaGateRows: heap allocations of each build.
var aaGateAllocs = []float64{
	51987, 39303, 39323, // IND
	43573, 32595, 32601, // COR
	16332, 12278, 12273, // ANTI
}

// standingGateAllocs parallels standingGateRows: allocations per event.
var standingGateAllocs = []float64{701.0, 1306.2}

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
