package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport marshals any report to a temp file for a comparator to read
// as its committed baseline.
func writeReport(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBaselineComparators drives all three -baseline* gates (AA allocs
// and pivots, TOPK scanned/user, DYN locality) through a pass case and a
// regression case each, and pins the failure-message contract: every
// failure names the offending row and states the observed value against
// the allowed limit, so a CI log is actionable without rerunning
// anything.
func TestBaselineComparators(t *testing.T) {
	aaRow := func(allocs uint64, pivots int64) benchResult {
		r := benchResult{Dataset: "COR", Pruning: true, WarmStart: true, Workers: 1, AllocsPerOp: allocs}
		r.Stats.Pivots = pivots
		return r
	}
	topkRow := func(scanned float64) topkBenchResult {
		return topkBenchResult{Dataset: "ANTI", Dim: 4, Users: 5000, ScannedPerUser: scanned}
	}
	dynRows := func(routedTouched float64) []dynResult {
		return []dynResult{
			{Dataset: "IND", Users: 64, Workers: 1, Routed: true,
				TouchedLeavesPerEvent: routedTouched, EventsPerSec: 1000},
			{Dataset: "IND", Users: 64, Workers: 1, Routed: false,
				TouchedLeavesPerEvent: 200, EventsPerSec: 1000},
		}
	}

	cases := []struct {
		name string
		// pass must accept; fail must reject with every wantInMsg substring
		// (the row identity, the observed value, and the allowed value).
		pass      func() error
		fail      func() error
		wantInMsg []string
	}{
		{
			name: "AA allocs",
			pass: func() error {
				base := benchReport{Results: []benchResult{aaRow(100_000, 0)}}
				fresh := benchReport{Results: []benchResult{aaRow(105_000, 0)}}
				return checkBaseline(fresh, writeReport(t, base))
			},
			fail: func() error {
				base := benchReport{Results: []benchResult{aaRow(100_000, 0)}}
				fresh := benchReport{Results: []benchResult{aaRow(120_000, 0)}}
				return checkBaseline(fresh, writeReport(t, base))
			},
			wantInMsg: []string{"COR pruning=true warm=true", "120000 allocs/op", "baseline 100000", "limit 110000"},
		},
		{
			name: "AA pivots",
			pass: func() error {
				base := benchReport{Results: []benchResult{aaRow(100_000, 1000)}}
				fresh := benchReport{Results: []benchResult{aaRow(100_000, 1050)}}
				return checkBaseline(fresh, writeReport(t, base))
			},
			fail: func() error {
				base := benchReport{Results: []benchResult{aaRow(100_000, 1000)}}
				fresh := benchReport{Results: []benchResult{aaRow(100_000, 1200)}}
				return checkBaseline(fresh, writeReport(t, base))
			},
			wantInMsg: []string{"COR pruning=true warm=true", "1200 pivots/op", "baseline 1000", "limit 1100"},
		},
		{
			name: "TOPK scanned per user",
			pass: func() error {
				base := topkBenchReport{Results: []topkBenchResult{topkRow(100)}}
				fresh := topkBenchReport{Results: []topkBenchResult{topkRow(105)}}
				return checkTopkBaseline(fresh, writeReport(t, base))
			},
			fail: func() error {
				base := topkBenchReport{Results: []topkBenchResult{topkRow(100)}}
				fresh := topkBenchReport{Results: []topkBenchResult{topkRow(150)}}
				return checkTopkBaseline(fresh, writeReport(t, base))
			},
			wantInMsg: []string{"ANTI d=4 |U|=5000", "150.0 scanned/user", "baseline 100.0", "limit 110.0"},
		},
		{
			name: "DYN touched leaves",
			pass: func() error {
				base := dynReport{Results: dynRows(10)}
				fresh := dynReport{Results: dynRows(10.5)}
				return checkDynBaseline(fresh, writeReport(t, base))
			},
			fail: func() error {
				base := dynReport{Results: dynRows(10)}
				fresh := dynReport{Results: dynRows(20)}
				return checkDynBaseline(fresh, writeReport(t, base))
			},
			wantInMsg: []string{"IND |U|=64 workers=1 routed=true", "20.0 touched leaves/event", "baseline 10.0", "limit 11.0"},
		},
		{
			name: "DYN locality floor",
			pass: func() error {
				// Routed touches 40, sweep 200: exactly the 5x floor.
				base := dynReport{Results: dynRows(40)}
				fresh := dynReport{Results: dynRows(40)}
				return checkDynBaseline(fresh, writeReport(t, base))
			},
			fail: func() error {
				// 50 × 5 > 200: the routed rows lost their locality edge even
				// though they match the committed baseline exactly.
				base := dynReport{Results: dynRows(50)}
				fresh := dynReport{Results: dynRows(50)}
				return checkDynBaseline(fresh, writeReport(t, base))
			},
			wantInMsg: []string{"IND |U|=64", "routed touches 50.0 leaves/event", "sweep 200.0", "5x locality floor"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.pass(); err != nil {
				t.Fatalf("within-tolerance report rejected: %v", err)
			}
			err := tc.fail()
			if err == nil {
				t.Fatal("regressed report accepted")
			}
			for _, want := range tc.wantInMsg {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("failure message missing %q:\n%v", want, err)
				}
			}
		})
	}
}

// TestKernelScanSpeedupGate pins the >=2x kernel sweep floor: an
// aggregate at the floor passes, below it fails stating both numbers,
// and a report without sweep cells (legacy) is skipped, not failed.
func TestKernelScanSpeedupGate(t *testing.T) {
	mk := func(fast, scalar float64) topkBenchReport {
		r := topkBenchReport{ScanSpeedup: scalar / fast}
		r.Results = []topkBenchResult{{Dataset: "IND", Dim: 3,
			ScanWallSeconds: fast, ScanWallScalarSeconds: scalar, ScanSpeedup: scalar / fast}}
		return r
	}
	if err := checkKernelScanSpeedup(mk(1.0, 2.0)); err != nil {
		t.Fatalf("at-floor speedup rejected: %v", err)
	}
	if err := checkKernelScanSpeedup(topkBenchReport{}); err != nil {
		t.Fatalf("legacy report without sweep cells rejected: %v", err)
	}
	err := checkKernelScanSpeedup(mk(1.0, 1.5))
	if err == nil {
		t.Fatal("below-floor speedup accepted")
	}
	for _, want := range []string{"1.50x", "2.0x"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure message missing %q:\n%v", want, err)
		}
	}
}
