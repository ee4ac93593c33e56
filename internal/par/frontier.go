package par

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// This file implements the frontier scheduler behind AA's arrangement
// construction: one priority queue shared by N workers, each popping the
// globally best task, running it, and pushing the tasks it spawns back
// onto the same queue.
//
// At one worker the loop runs on the caller's goroutine in strict
// priority order, which is Algorithm 2's best-first loop exactly. At more
// workers it makes no ordering promise beyond "every pushed task runs
// exactly once", so it only suits task systems whose outcome commutes:
// processing order may change wall-clock time and the schedule profile,
// never results. AA's mIR mode has that property (a cell's fate depends
// only on its own payload); the caller is responsible for ensuring it.
//
// A worker holds the queue lock only for one heap operation, against
// tens of microseconds of LP work per AA cell, so one shared queue is
// enough. DESIGN.md §9.2 has the measurements (2 CPUs) and the unmeasured
// argument for larger hosts.

// FrontierStats describes one frontier execution. MaxPending and
// PerWorker depend on the schedule at more than one worker: they vary
// run to run and across worker counts, unlike the task results. They
// exist for observability, not for determinism contracts.
type FrontierStats struct {
	// Workers is the number of workers the frontier ran with.
	Workers int
	// MaxPending is the high-water mark of in-flight tasks (queued +
	// running), i.e. the widest the frontier ever got.
	MaxPending int
	// PerWorker[i] is the number of tasks worker i executed.
	PerWorker []int
}

// Queue is a binary min-heap of tasks keyed by a priority fixed at push
// time: smaller priorities pop first, and equal priorities pop in an
// order fixed by the push/pop sequence alone. Callers stage seed tasks in
// a Queue and hand it to RunFrontier, which guards it with its lock while
// workers run. A Queue is not safe for concurrent use on its own.
type Queue[T any] struct {
	items []queueItem[T]
}

type queueItem[T any] struct {
	v   T
	pri float64
}

// Len returns the number of queued tasks.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push enqueues v with priority pri.
func (q *Queue[T]) Push(v T, pri float64) {
	q.items = append(q.items, queueItem[T]{v, pri})
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.items[p].pri <= q.items[i].pri {
			break
		}
		q.items[p], q.items[i] = q.items[i], q.items[p]
		i = p
	}
}

// Pop removes and returns the minimum-priority task; ok is false when the
// queue is empty. The vacated backing slot is zeroed, so a popped (and
// possibly long-finished) task is not kept reachable by the queue's spare
// capacity.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	top := q.items[0].v
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = queueItem[T]{}
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.items[l].pri < q.items[small].pri {
			small = l
		}
		if r < last && q.items[r].pri < q.items[small].pri {
			small = r
		}
		if small == i {
			break
		}
		q.items[i], q.items[small] = q.items[small], q.items[i]
		i = small
	}
	return top, true
}

// FrontierWorker is the per-worker handle passed to the task callback.
type FrontierWorker[T any] struct {
	f  *frontier[T]
	id int
}

// ID returns the worker's index in [0, workers).
func (fw *FrontierWorker[T]) ID() int { return fw.id }

// Push enqueues a new task on the shared queue and wakes an idle worker.
func (fw *FrontierWorker[T]) Push(t T, pri float64) {
	f := fw.f
	f.mu.Lock()
	f.q.Push(t, pri)
	f.pending++
	f.maxPending = max(f.maxPending, f.pending)
	f.mu.Unlock()
	f.idle.Signal()
}

// RunFrontier drains q with workers workers. Each repeatedly pops the
// minimum-priority task and runs run(worker, task), which may push more
// tasks, until the queue is empty and no task is running. q holds the
// staged seed tasks and is empty when RunFrontier returns.
//
// workers is taken as given (callers resolve it first). Worker 0 runs on
// the calling goroutine, so workers <= 1 runs every task there in strict
// priority order, with no other goroutine involved.
func RunFrontier[T any](workers int, q *Queue[T], run func(fw *FrontierWorker[T], task T)) FrontierStats {
	workers = max(workers, 1)
	f := &frontier[T]{q: q, run: run, pending: q.Len(), maxPending: q.Len()}
	f.idle.L = &f.mu
	perWorker := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			perWorker[w] = f.work(w)
		}(w)
	}
	perWorker[0] = f.work(0)
	wg.Wait()
	return FrontierStats{Workers: workers, MaxPending: f.maxPending, PerWorker: perWorker}
}

// frontier is the shared scheduler state; mu guards every field but run.
type frontier[T any] struct {
	mu  sync.Mutex
	q   *Queue[T]
	run func(fw *FrontierWorker[T], task T)

	// pending counts tasks queued or running. The frontier is drained
	// when it reaches zero: no task is left to pop and none is running
	// that could push one.
	pending    int
	maxPending int

	// idle is where workers wait while the queue is empty but tasks are
	// still running.
	idle sync.Cond
}

// work is one worker's loop; it returns the number of tasks the worker
// executed. The lock is not held while a task runs.
func (f *frontier[T]) work(id int) (executed int) {
	fw := &FrontierWorker[T]{f: f, id: id}
	labels := pprof.Labels("mir_phase", "frontier", "mir_worker", strconv.Itoa(id))
	pprof.Do(context.Background(), labels, func(context.Context) {
		f.mu.Lock()
		for {
			for f.q.Len() == 0 && f.pending > 0 {
				f.idle.Wait()
			}
			t, ok := f.q.Pop()
			if !ok {
				break // pending == 0: every task has run
			}
			f.mu.Unlock()
			f.run(fw, t)
			executed++
			f.mu.Lock()
			f.pending--
			if f.pending == 0 {
				f.idle.Broadcast()
			}
		}
		f.mu.Unlock()
	})
	return executed
}
