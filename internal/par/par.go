// Package par provides the worker-pool primitives behind the engine's
// multi-core execution layer: a Workers-option resolver shared by every
// layer of the stack, a chunked index fan-out with deterministic
// assignment, and the frontier scheduler with its priority queue
// (frontier.go). The all-top-k preprocessing (internal/topk) and instance
// construction (internal/core) fan their embarrassingly parallel loops
// through For and ForWorker; every AA drain runs on RunFrontier, one cell
// per task.
//
// Determinism contract: ForWorker partitions [0, n) into contiguous
// chunks with a fixed worker→range mapping, and callers write results
// into index-addressed slots. Output is therefore identical for every
// worker count; only wall-clock time changes. Per-worker accumulators
// (e.g. test counters) are merged by summation, which is
// order-independent, so merged counters are deterministic too.
package par

import (
	"runtime"
	"sync"
)

// Resolve maps an Options-style Workers value to a concrete parallelism
// degree: values below 1 select runtime.GOMAXPROCS(0) ("use every core"),
// 1 selects strictly sequential execution on the caller's goroutine, and
// larger values are taken as given.
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs fn(i) for every i in [0, n) across Resolve(workers) workers
// and blocks until every call has returned. See ForWorker for the
// scheduling and determinism guarantees.
func For(n, workers int, fn func(i int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}

// ForWorker fans the index range [0, n) across w = min(Resolve(workers), n)
// workers in contiguous chunks — worker id k handles [k·n/w, (k+1)·n/w) —
// and passes the worker id alongside each index, so callers can accumulate
// into per-worker state without locks. The chunk assignment is
// deterministic. With a single worker (or n <= 1) the loop runs inline on
// the caller's goroutine with no synchronization, reproducing the
// sequential execution exactly.
func ForWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k * n / w; i < (k+1)*n/w; i++ {
				fn(k, i)
			}
		}(k)
	}
	wg.Wait()
}
