package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

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

		seeds := make([]task, seedN)
		pris := make([]float64, seedN)
		for i := range seeds {
			seeds[i] = task{id: i, level: 0}
			pris[i] = float64(seedN - i)
		}
		st := RunFrontier(workers, seeds, pris, func(fw *FrontierWorker[task], tk task) {
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
		if st.MaxPending < 1 {
			t.Fatalf("workers=%d: MaxPending=%d", workers, st.MaxPending)
		}
	}
}

// TestFrontierInlineOrderIsBestFirst pins the workers<=1 path to strict
// priority order — the same behaviour as a caller-owned sequential heap.
func TestFrontierInlineOrderIsBestFirst(t *testing.T) {
	seeds := []int{5, 1, 4, 2, 3}
	pris := []float64{5, 1, 4, 2, 3}
	var got []int
	RunFrontier(1, seeds, pris, func(fw *FrontierWorker[int], v int) {
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
}

// TestFrontierStealHalfPreservesHeap exercises detachHalf directly: the
// victim's remaining prefix must still be a valid min-heap and the union
// of loot + remainder must equal the original contents.
func TestFrontierStealHalfPreservesHeap(t *testing.T) {
	var q frontierQueue[int]
	orig := []float64{9, 3, 7, 1, 8, 2, 6, 4, 5, 0}
	for i, p := range orig {
		q.push(i, p)
	}
	loot := q.detachHalf()
	if len(loot) == 0 {
		t.Fatal("detachHalf returned nothing from a full queue")
	}
	// Remaining prefix is a valid heap.
	for i := 1; i < len(q.items); i++ {
		p := (i - 1) / 2
		if q.items[p].pri > q.items[i].pri {
			t.Fatalf("heap violated at %d after detachHalf", i)
		}
	}
	// Nothing lost, nothing duplicated.
	var all []float64
	for _, it := range q.items {
		all = append(all, it.pri)
	}
	for _, it := range loot {
		all = append(all, it.pri)
	}
	sort.Float64s(all)
	sort.Float64s(orig)
	if len(all) != len(orig) {
		t.Fatalf("loot+remainder has %d items, want %d", len(all), len(orig))
	}
	for i := range orig {
		if all[i] != orig[i] {
			t.Fatalf("contents diverged: %v vs %v", all, orig)
		}
	}
	// Detached slots must be zeroed so stolen tasks are collectable.
	tail := q.items[:cap(q.items)]
	for i := len(q.items); i < len(tail) && i < len(orig); i++ {
		if tail[i].pri != 0 {
			t.Fatalf("slot %d not zeroed after detachHalf", i)
		}
	}
	// Singleton queue: the single item must be stealable.
	var q1 frontierQueue[int]
	q1.push(42, 1)
	if loot := q1.detachHalf(); len(loot) != 1 || loot[0].v != 42 {
		t.Fatalf("singleton steal got %v", loot)
	}
	if len(q1.items) != 0 {
		t.Fatal("singleton victim not emptied")
	}
}

// TestFrontierStealStarvedWorkers seeds only worker 0's queue (via a
// single seed) with a task that fans out; with many workers the only way
// the others get work is stealing. The children block until the seed
// has pushed all of them, so no stolen child can complete while the
// seed is still pushing: pending then deterministically peaks at
// fanout+1 (every child queued or running, plus the seed itself).
func TestFrontierStealStarvedWorkers(t *testing.T) {
	workers := 4
	var executed atomic.Int64
	const fanout = 64
	pushed := make(chan struct{})
	st := RunFrontier(workers, []int{0}, []float64{0}, func(fw *FrontierWorker[int], v int) {
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

// TestFrontierConcurrentPushHammer stresses the push/steal/park protocol
// under the race detector: many workers, bursty task production, repeated
// rounds so park/unpark cycles actually occur.
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
		seeds := []int{3, 3} // two deep spawners
		pris := []float64{0, 1}
		RunFrontier(workers, seeds, pris, func(fw *FrontierWorker[int], depth int) {
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
		st := RunFrontier(workers, nil, nil, func(fw *FrontierWorker[int], v int) {
			t.Fatal("task ran with no seeds")
		})
		if st.MaxPending != 0 {
			t.Fatalf("workers=%d: MaxPending=%d on empty frontier", workers, st.MaxPending)
		}
	}
}
