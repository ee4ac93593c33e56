package par

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// stage returns a queue holding seeds[i] at priority pris[i].
func stage[T any](seeds []T, pris []float64) *Queue[T] {
	q := &Queue[T]{}
	for i := range seeds {
		q.Push(seeds[i], pris[i])
	}
	return q
}

// TestFrontierParallelRunsEveryTaskOnce checks the core contract: every
// seed and every task pushed during processing executes exactly once, for
// a range of worker counts.
func TestFrontierParallelRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const seedN = 37
		const childrenPer = 3
		const depth = 3 // seeds spawn children, children spawn grandchildren, ...

		var mu sync.Mutex
		counts := make(map[int]int)

		type task struct {
			id    int
			level int
		}
		next := atomic.Int64{}
		next.Store(seedN)

		q := &Queue[task]{}
		for i := 0; i < seedN; i++ {
			q.Push(task{id: i, level: 0}, float64(seedN-i))
		}
		st := RunFrontier(workers, q, func(fw *FrontierWorker[task], tk task) {
			mu.Lock()
			counts[tk.id]++
			mu.Unlock()
			if tk.level < depth {
				for c := 0; c < childrenPer; c++ {
					id := int(next.Add(1)) - 1
					fw.Push(task{id: id, level: tk.level + 1}, float64(id))
				}
			}
		})

		// seedN tasks at level 0, each spawning childrenPer at each of
		// `depth` further levels: a full childrenPer-ary expansion.
		want := 0
		per := seedN
		for l := 0; l <= depth; l++ {
			want += per
			per *= childrenPer
		}
		if len(counts) != want {
			t.Fatalf("workers=%d: executed %d distinct tasks, want %d", workers, len(counts), want)
		}
		for id, n := range counts {
			if n != 1 {
				t.Fatalf("workers=%d: task %d executed %d times", workers, id, n)
			}
		}
		if st.Workers != workers {
			t.Fatalf("workers=%d: stats.Workers=%d", workers, st.Workers)
		}
		total := 0
		for _, n := range st.PerWorker {
			total += n
		}
		if total != want {
			t.Fatalf("workers=%d: PerWorker sums to %d, want %d", workers, total, want)
		}
		if st.MaxPending < seedN {
			t.Fatalf("workers=%d: MaxPending=%d, want >= %d seeds", workers, st.MaxPending, seedN)
		}
		if q.Len() != 0 {
			t.Fatalf("workers=%d: %d tasks left in the queue", workers, q.Len())
		}
	}
}

// TestFrontierInlineOrderIsBestFirst pins the workers<=1 path to strict
// priority order — the same behaviour as a caller-owned sequential heap.
func TestFrontierInlineOrderIsBestFirst(t *testing.T) {
	var got []int
	q := stage([]int{5, 1, 4, 2, 3}, []float64{5, 1, 4, 2, 3})
	st := RunFrontier(1, q, func(fw *FrontierWorker[int], v int) {
		got = append(got, v)
		if v == 1 {
			// Pushed mid-run; must still be ordered among the remaining.
			fw.Push(0, 0.5)
		}
	})
	want := []int{1, 0, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got, want)
		}
	}
	// Five seeds, then task 1 (still running) pushes task 0: six in
	// flight at the peak.
	if st.MaxPending != 6 {
		t.Fatalf("MaxPending=%d, want 6", st.MaxPending)
	}
}

// TestFrontierDrainsStagedQueue: RunFrontier runs every staged task
// exactly once and leaves the queue empty, at one worker in priority
// order.
func TestFrontierDrainsStagedQueue(t *testing.T) {
	for _, workers := range []int{1, 4} {
		q := &Queue[int]{}
		for i := 0; i < 10; i++ {
			q.Push(i, float64(10-i))
		}
		var mu sync.Mutex
		var order []int
		RunFrontier(workers, q, func(_ *FrontierWorker[int], v int) {
			mu.Lock()
			order = append(order, v)
			mu.Unlock()
		})
		if q.Len() != 0 {
			t.Fatalf("workers=%d: queue len %d after the run", workers, q.Len())
		}
		seen := map[int]bool{}
		for _, v := range order {
			if seen[v] {
				t.Fatalf("workers=%d: task %d ran twice", workers, v)
			}
			seen[v] = true
		}
		if len(seen) != 10 {
			t.Fatalf("workers=%d: ran %d tasks, want 10", workers, len(seen))
		}
		if workers == 1 {
			for i, v := range order {
				if v != 9-i {
					t.Fatalf("workers=1: order %v, want priority order", order)
				}
			}
		}
	}
}

// TestFrontierSingleSeedFanOut starts from a single seed that fans out to
// many children, so every worker but the one running the seed starts
// idle and must be woken by its pushes. The children block until the
// seed has pushed all of them, so no child can complete while the seed is
// still pushing: pending then deterministically peaks at fanout+1 (every
// child queued or running, plus the seed itself).
func TestFrontierSingleSeedFanOut(t *testing.T) {
	workers := 4
	var executed atomic.Int64
	const fanout = 64
	pushed := make(chan struct{})
	st := RunFrontier(workers, stage([]int{0}, []float64{0}), func(fw *FrontierWorker[int], v int) {
		executed.Add(1)
		if v != 0 {
			<-pushed
			return
		}
		for i := 1; i <= fanout; i++ {
			fw.Push(i, float64(i))
		}
		close(pushed)
	})
	if got := executed.Load(); got != fanout+1 {
		t.Fatalf("executed %d tasks, want %d", got, fanout+1)
	}
	if st.MaxPending < fanout {
		t.Fatalf("MaxPending=%d, want >= %d", st.MaxPending, fanout)
	}
}

// TestFrontierConcurrentPushHammer stresses the push/wait/wake protocol
// under the race detector: many workers, bursty task production, repeated
// rounds so idle waits and wake-ups actually occur.
func TestFrontierConcurrentPushHammer(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for r := 0; r < rounds; r++ {
		var executed atomic.Int64
		// Two deep spawners.
		RunFrontier(workers, stage([]int{3, 3}, []float64{0, 1}), func(fw *FrontierWorker[int], depth int) {
			executed.Add(1)
			if depth > 0 {
				fw.Push(depth-1, float64(depth))
				fw.Push(depth-1, float64(depth))
			}
		})
		// Two seeds at depth 3, each a full binary expansion: 2*(2^4 - 1).
		if got := executed.Load(); got != 30 {
			t.Fatalf("round %d: executed %d, want 30", r, got)
		}
	}
}

// TestFrontierParallelEmptySeeds must terminate immediately.
func TestFrontierParallelEmptySeeds(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st := RunFrontier(workers, &Queue[int]{}, func(fw *FrontierWorker[int], v int) {
			t.Fatal("task ran with no seeds")
		})
		if st.MaxPending != 0 {
			t.Fatalf("workers=%d: MaxPending=%d on empty frontier", workers, st.MaxPending)
		}
	}
}

// TestQueueOrdering: pops come out in priority order, and an empty queue
// pops nothing.
func TestQueueOrdering(t *testing.T) {
	pris := []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	q := stage([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, pris)
	var got []float64
	for q.Len() > 0 {
		v, _ := q.Pop()
		got = append(got, pris[v])
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("queue pop order not sorted: %v", got)
	}
	if _, ok := q.Pop(); ok {
		t.Error("empty queue should pop nothing")
	}
}

// TestQueuePopReleasesTask: the truncated backing array must not keep a
// popped task alive — popped tasks (AA's decided cells and their
// subtrees) should be collectable — so every vacated slot is zeroed,
// whether Pop or a RunFrontier consuming the queue vacated it.
func TestQueuePopReleasesTask(t *testing.T) {
	q := &Queue[*int]{}
	for i := 0; i < 8; i++ {
		v := i
		q.Push(&v, float64(i))
	}
	for i := 0; i < 5; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatal("unexpected empty queue")
		}
	}
	backing := q.items[:cap(q.items)]
	for i := q.Len(); i < len(backing); i++ {
		if backing[i].v != nil {
			t.Fatalf("backing slot %d still references task %d after pop", i, *backing[i].v)
		}
	}
	RunFrontier(1, q, func(*FrontierWorker[*int], *int) {})
	backing = q.items[:cap(q.items)]
	for i := range backing {
		if backing[i].v != nil {
			t.Fatalf("backing slot %d still references a task after the frontier consumed the queue", i)
		}
	}
}

// TestQueueRandomSequences: pops come out in nondecreasing priority for
// random interleavings of pushes and pops.
func TestQueueRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		var q Queue[int]
		pri := map[int]float64{}
		prev := -1e18
		for step := 0; step < 200; step++ {
			if q.Len() == 0 || rng.Intn(3) > 0 {
				p := rng.NormFloat64()
				pri[step] = p
				q.Push(step, p)
				if p < prev {
					prev = -1e18 // a smaller priority legitimately resets the order
				}
			} else {
				v, _ := q.Pop()
				p := pri[v]
				if p < prev-1e-12 {
					t.Fatalf("trial %d: popped %g after %g", trial, p, prev)
				}
				prev = p
			}
		}
	}
}
