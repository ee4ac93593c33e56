// Command mirbench regenerates every table and figure of the paper's
// evaluation (Section 6) on this reproduction. Each experiment prints the
// same series the paper plots — running time, cell counts, group counts,
// pruning ratios — as aligned text tables.
//
// Hardware differs from the paper's testbed and the real datasets are
// replaced by synthetic stand-ins (see DESIGN.md), so absolute numbers are
// not comparable; the trends and orders-of-magnitude gaps are. The default
// -scale keeps a full run in the minutes range; -paper restores the
// paper's cardinalities (hours).
//
// Usage:
//
//	mirbench -list
//	mirbench -fig 10a
//	mirbench -fig all -scale 0.05
//	mirbench -fig 10a -cpuprofile cpu.pb -memprofile mem.pb
//
// Work gates over fixed instances (pivots, scanned products, touched
// leaves, allocations) are ordinary Go tests in the packages they
// measure, and wall-time comparisons between commits are perfbench's
// job (perfbench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// experiment is one reproducible figure or table.
type experiment struct {
	id    string
	title string
	run   func(cfg config)
}

var experiments []experiment

func register(id, title string, run func(cfg config)) {
	experiments = append(experiments, experiment{id, title, run})
}

func main() {
	fig := flag.String("fig", "", "experiment to run (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiments and the parameter grid")
	scale := flag.Float64("scale", 0.01, "fraction of the paper's cardinalities to use")
	paper := flag.Bool("paper", false, "use the paper's full cardinalities (slow)")
	seed := flag.Int64("seed", 1, "dataset seed")
	workers := flag.Int("workers", 0, "cap on CPU cores used (0 = all); 1 reproduces the sequential engine")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile at exit to this path")
	flag.Parse()

	// The engine sizes its worker pools from GOMAXPROCS, so capping it here
	// bounds both the preprocessing fan-out and the AA frontier's workers.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := newConfig(*scale, *paper, *seed)
	if *list {
		printList(cfg)
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "mirbench: specify -fig <id> or -list")
		os.Exit(2)
	}
	if *fig == "all" {
		for _, e := range experiments {
			runOne(e, cfg)
		}
		return
	}
	for _, e := range experiments {
		if strings.EqualFold(e.id, *fig) {
			runOne(e, cfg)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "mirbench: unknown experiment %q (see -list)\n", *fig)
	os.Exit(2)
}

// fatal reports an operational error. It exits without running deferred
// profile flushes — acceptable, since a failed run has nothing to profile.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mirbench: %v\n", err)
	os.Exit(1)
}

func runOne(e experiment, cfg config) {
	fmt.Printf("==== %s: %s ====\n", e.id, e.title)
	e.run(cfg)
	fmt.Println()
}

func printList(cfg config) {
	fmt.Println("parameter grid (Table 2, scaled):")
	fmt.Printf("  |P| default %d   (paper 1.0M; tested 0.1M..2.0M scaled)\n", cfg.nP)
	fmt.Printf("  |U| default %d   (paper 10K; tested 1K..1M scaled)\n", cfg.nU)
	fmt.Printf("  d   default %d    (tested 2..7)\n", cfg.d)
	fmt.Printf("  k   default %d   (tested 1..80)\n", cfg.k)
	fmt.Printf("  m   default 0.5x|U| (tested 0.001x..0.9x)\n")
	fmt.Println("\nexperiments:")
	ids := make([]experiment, len(experiments))
	copy(ids, experiments)
	sort.Slice(ids, func(a, b int) bool { return ids[a].id < ids[b].id })
	for _, e := range ids {
		fmt.Printf("  %-5s %s\n", e.id, e.title)
	}
}
