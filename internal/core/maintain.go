package core

import (
	"context"
	"fmt"
	"runtime/pprof"

	"mir/internal/celltree"
	"mir/internal/geom"
	"mir/internal/topk"
)

// Maintainer keeps an m-impact region up to date under a dynamic user set
// — the future-work direction sketched in the paper's conclusion (users
// currently online, real-time advertising). Instead of recomputing from
// scratch, it retains the finished arrangement and, on each user arrival
// or departure, re-verifies only the cells whose decision the update can
// invalidate, resuming the AA loop on those:
//
//   - Adding a user can only revive Eliminated cells (reported cells stay
//     reported: coverage counts only grow).
//   - Removing a user can only demote Reported cells (eliminated cells
//     stay eliminated: |U| and the cell's exclusion count drop together).
//
// Users are named by handles, which are sequential and never reused; each
// alive user occupies one row of the instance's user arrays, and a
// departed user's row is recycled.
type Maintainer struct {
	m    int
	opts Options

	// rows maps each alive user's handle to its row in the instance's
	// Users, Kth, HS and WProj arrays; next is the handle the next arrival
	// receives. A departed user's row joins free once its op's descent and
	// drain have finished, and an arrival takes a free row before
	// appending a new one. A lagging leaf may still hold the freed row
	// pending, but it replays its backlog in log order and touches a
	// logged user only through the op's own idx, h and g, so the departure
	// strips the row before a later arrival can add it again.
	rows map[int]int
	next int
	free []int

	// search answers arriving users' top-k thresholds from the instance's
	// shared index. The Maintainer is single-threaded, so one searcher
	// suffices.
	search *topk.Searcher

	// run holds the arrangement and the instance (rows as above); run.nU
	// is the alive population.
	run *aaRun

	// log is the staged-op history (one batchOp per event) and logBase the
	// absolute index of log[0]. Subtrees whose bounds prove an op harmless
	// lag behind the log (celltree.Cell.MaintSeq records how far each node
	// has caught up); the log is compacted once the backlog reaches
	// routeLogCap. See route.go.
	log     []batchOp
	logBase int

	// fired collects the leaves the newest op's descent hands to
	// re-verification, in tree-leaf order; leavesBuf is scratch for
	// compaction's leaf enumeration. Both are reused across events.
	fired     []*celltree.Cell
	leavesBuf []*celltree.Cell
}

// NewMaintainer computes the initial region and retains the arrangement.
//
// The 2-D specialized insertion is disabled for maintained runs: it
// reports cells on nesting arguments without materializing their coverage
// counts, and resumable decisions require count-faithful cells.
func NewMaintainer(inst *Instance, m int, opts Options) (*Maintainer, error) {
	opts.Disable2D = true
	run, err := runAA(inst, m, opts)
	if err != nil {
		return nil, err
	}
	mt := &Maintainer{
		m:      m,
		opts:   opts,
		rows:   make(map[int]int, len(inst.Users)),
		next:   len(inst.Users),
		search: topk.NewSearcher(inst.TopKIndex),
		run:    run,
	}
	for i := range inst.Users {
		mt.rows[i] = i
	}
	// Settle the routing bounds of the freshly built arrangement so the
	// first event's descent starts from exact per-subtree values.
	mt.refreshSubtree(mt.run.tr.Root)
	return mt, nil
}

// NumUsers returns the current (alive) user count.
func (mt *Maintainer) NumUsers() int { return mt.run.nU }

// Region extracts the current m-impact region from the maintained
// arrangement.
func (mt *Maintainer) Region() *Region {
	return mt.run.region()
}

// CountCovering returns the number of alive users covering point p.
func (mt *Maintainer) CountCovering(p geom.Vector) int {
	return countCovering(mt.aliveHS(), p)
}

// MinBoundaryGap mirrors Instance.MinBoundaryGap over alive users. With
// no users alive there is no boundary, so the gap is +Inf (the identity
// of min), never a finite sentinel a caller could mistake for a distance.
func (mt *Maintainer) MinBoundaryGap(p geom.Vector) float64 {
	return minBoundaryGap(mt.aliveHS(), p)
}

// aliveHS returns a fresh slice of the alive users' halfspaces, in no
// particular order.
func (mt *Maintainer) aliveHS() []geom.Halfspace {
	hs := make([]geom.Halfspace, 0, len(mt.rows))
	for _, r := range mt.rows {
		hs = append(hs, mt.run.inst.HS[r])
	}
	return hs
}

// AddUser registers a new user, updates the region incrementally, and
// returns the user's handle (for a later RemoveUser). Valid handles are
// non-negative; on error the returned handle is -1, so it can never be
// mistaken for the first user's handle 0.
//
// The new user becomes a singleton pending view on every leaf, decided or
// not, so that the accounting invariant (counts + pending = alive users)
// survives future reactivations. Reported cells stay reported (their
// coverage only grows); eliminated cells whose bound now allows reaching m
// are revived and resume processing. AddUser is a one-event ApplyBatch, and
// a batch applies its events one at a time, so singles and bursts take the
// same routed descent.
func (mt *Maintainer) AddUser(u topk.UserPref) (int, error) {
	handles, err := mt.ApplyBatch([]Event{{Kind: EventArrive, User: u}})
	if err != nil {
		return -1, err
	}
	return handles[0], nil
}

// RemoveUser retires the user with the given handle and updates the region
// incrementally: the user is stripped from every leaf's pending views and
// counts, and reported leaves whose decision the removal broke are
// re-verified. Like AddUser, it is a single-event ApplyBatch.
func (mt *Maintainer) RemoveUser(handle int) error {
	_, err := mt.ApplyBatch([]Event{{Kind: EventDepart, Handle: handle}})
	return err
}

// NextHandle returns the handle the next successful arrival will receive
// (handles are sequential and never reused, whatever row the user takes).
// An ingest layer queueing arrivals can therefore predict handles at
// enqueue time: with every event funneled through one FIFO queue, the
// i-th queued arrival gets NextHandle()+i.
func (mt *Maintainer) NextHandle() int { return mt.next }

// EventKind discriminates the population events of a maintenance batch.
type EventKind uint8

const (
	// EventArrive registers Event.User as a new population member.
	EventArrive EventKind = iota
	// EventDepart retires the user with handle Event.Handle.
	EventDepart
)

// Event is one population change in an ApplyBatch sequence.
type Event struct {
	Kind   EventKind
	User   topk.UserPref // arrival payload (EventArrive)
	Handle int           // departure target (EventDepart)
}

// batchOp is an event in staged form: the user's row, an arrival's
// singleton pending group or a departure's influential halfspace, plus
// the population size right after the event.
type batchOp struct {
	arrive bool
	idx    int // row
	g      *Group
	h      geom.Halfspace
	nAlive int
}

// ApplyBatch applies a sequence of arrivals and departures and returns one
// handle per event (the arrival's new handle, -1 for departures). The batch
// is atomic on error: every event is validated up front against the
// population as it evolves through the sequence (a departure may target an
// arrival earlier in the same batch), and an invalid event rejects the
// whole batch with the Maintainer untouched.
//
// A valid batch is registered (arrivals' thresholds and halfspaces
// stored in instance rows, departures unmapped) and then applied one
// event at a time, each through the same routed descent, re-verification
// drain and bounds refresh as a one-event batch. The arrangement, the
// region and every Stats counter therefore end exactly as if the events
// had gone through AddUser/RemoveUser one by one. Batching a burst saves
// callers one call per event (the daemon publishes one snapshot per
// burst), not maintenance work: a burst costs the sum of its events.
func (mt *Maintainer) ApplyBatch(events []Event) ([]int, error) {
	if len(events) == 0 {
		return nil, nil
	}
	// Validate the whole batch before mutating anything, simulating the
	// population overlay (arrivals and departures earlier in the batch).
	inst := mt.run.inst
	handles := make([]int, len(events))
	nAfter := make([]int, len(events))
	var born, dead map[int]bool
	next := mt.next
	n := mt.run.nU
	for i, ev := range events {
		switch ev.Kind {
		case EventArrive:
			if len(ev.User.W) != inst.Dim {
				return nil, fmt.Errorf("%w: event %d: new user has %d weights, want %d",
					ErrDimMismatch, i, len(ev.User.W), inst.Dim)
			}
			if j := firstNonFinite(ev.User.W); j >= 0 {
				return nil, fmt.Errorf("%w: event %d: new user weight %d is %v",
					ErrNonFinite, i, j, ev.User.W[j])
			}
			if j := firstNegative(ev.User.W); j >= 0 {
				return nil, fmt.Errorf("%w: event %d: new user weight %d is %v",
					ErrNegativeWeight, i, j, ev.User.W[j])
			}
			if allZero(ev.User.W) {
				return nil, fmt.Errorf("%w: event %d: new user", ErrZeroWeight, i)
			}
			if ev.User.K < 1 || ev.User.K > len(inst.Products) {
				return nil, fmt.Errorf("%w: event %d: new user has k=%d (|P|=%d)",
					ErrBadK, i, ev.User.K, len(inst.Products))
			}
			if born == nil {
				born = make(map[int]bool)
			}
			handles[i] = next
			born[next] = true
			next++
			n++
		case EventDepart:
			hd := ev.Handle
			_, alive := mt.rows[hd]
			if !(alive || born[hd]) || dead[hd] {
				return nil, fmt.Errorf("core: event %d: user %d not present", i, hd)
			}
			if dead == nil {
				dead = make(map[int]bool)
			}
			dead[hd] = true
			handles[i] = -1
			n--
		default:
			return nil, fmt.Errorf("core: event %d: unknown event kind %d", i, ev.Kind)
		}
		nAfter[i] = n
	}

	// Register the events in order: arrivals get their thresholds (so the
	// search counters accumulate exactly as per-event AddUser calls would)
	// and their instance rows, departures leave the handle map. Nothing
	// reads a user's row before its own op is applied, and a row is freed
	// only once its op has been applied, so registering the whole batch
	// first is equivalent to interleaving. (Freeing at registration would
	// not be: a later arrival of the same batch could then overwrite the
	// row while the batch's earlier ops, the departure's own included,
	// still read the departing user through it.)
	ops := make([]batchOp, len(events))
	for i, ev := range events {
		if ev.Kind == EventDepart {
			r := mt.rows[ev.Handle]
			delete(mt.rows, ev.Handle)
			ops[i] = batchOp{idx: r, h: inst.HS[r], nAlive: nAfter[i]}
			continue
		}
		u := ev.User
		mt.search.Stats = topk.SearchStats{}
		kth := mt.search.Kth(u.W, u.K)
		mt.run.st.ScannedProducts += mt.search.Stats.ScannedProducts
		mt.run.st.LayerPrunes += mt.search.Stats.LayerPrunes
		r := mt.storeRow(u, kth)
		mt.rows[handles[i]] = r
		ops[i] = batchOp{arrive: true, idx: r,
			g:      &Group{Pivot: kth.Index, R: inst.Products[kth.Index], Members: []int{r}},
			h:      inst.HS[r],
			nAlive: nAfter[i]}
	}
	mt.next = next
	for _, op := range ops {
		mt.applyOp(op)
	}
	return handles, nil
}

// storeRow writes an arriving user into a free instance row, or appends a
// new row when none is free, and returns the row.
func (mt *Maintainer) storeRow(u topk.UserPref, kth topk.KthResult) int {
	inst := mt.run.inst
	h := geom.Halfspace{W: u.W, T: kth.Score}
	wp := u.W
	if inst.Dim > 1 {
		wp = u.W[:inst.Dim-1]
	}
	if n := len(mt.free); n > 0 {
		r := mt.free[n-1]
		mt.free = mt.free[:n-1]
		inst.Users[r], inst.Kth[r], inst.HS[r], inst.WProj[r] = u, kth, h, wp
		return r
	}
	inst.Users = append(inst.Users, u)
	inst.Kth = append(inst.Kth, kth)
	inst.HS = append(inst.HS, h)
	inst.WProj = append(inst.WProj, wp)
	return len(inst.Users) - 1
}

// stageLeaf replays mt.log[from:] against one leaf and stops at the first
// op that breaks the leaf's decision. An op changes the leaf's counts only
// by classifying its own halfspace: an arrival is absorbed where it is
// conclusive and pends where it cuts; a departure is stripped from the
// pending views, or undone from the counts if the leaf had decided it.
// The payload is cloned on first mutation. from indexes mt.log (subtract
// logBase from an absolute StageSeq). The leaf is marked current through
// the end of the log up front: a fired leaf is re-verified by the
// caller's drain before the op returns, so the mark is true by the time
// anything reads it. Reports whether the leaf fired, which only the
// newest op may make it do: the older ops in its backlog were deferred
// under a no-fire proof (route.go), and a fire there means that proof
// was unsound.
func (mt *Maintainer) stageLeaf(leaf *celltree.Cell, from int) bool {
	leaf.MaintSeq = mt.logBase + len(mt.log)
	leaf.StageSeq = leaf.MaintSeq
	if leaf.Empty {
		return false
	}
	mt.run.tr.Stats.RoutedLeaves++
	var owned *cellGroups
	own := func() *cellGroups {
		if owned == nil {
			owned = pendingOf(leaf).clone()
			leaf.Payload = owned
		}
		return owned
	}
	for e := from; e < len(mt.log); e++ {
		op := &mt.log[e]
		if op.arrive {
			// Absorb the arrival where its halfspace is conclusive for this
			// leaf: the decision is exactly what a drain's re-verification
			// would reach, reached now, so only cut leaves carry a pending
			// view. The geometry matters for the revival check too — an
			// excluded arrival raises the alive population and the
			// out-count together, so the revival slack nAlive − OutCount
			// does not move and the leaf cannot fire.
			switch leaf.Classify(op.h, !mt.opts.DisableFastTest) {
			case geom.Covers:
				leaf.InCount++
			case geom.Excludes:
				leaf.OutCount++
			default: // Cuts: pending until a drain resolves it (or splits)
				cg := own()
				cg.views = append(cg.views, newView(op.g))
			}
		} else {
			// Departure: strip the user from the leaf's pending views (views
			// are shared between sibling leaves, so replace rather than
			// mutate). The search runs on the current list; the clone
			// preserves order, so the found positions stay valid on it.
			cur := pendingOf(leaf)
			stripped := false
			for vi, v := range cur.views {
				pos := -1
				for pi, ui := range v.members {
					if ui == op.idx {
						pos = pi
						break
					}
				}
				if pos < 0 {
					continue
				}
				stripped = true
				cg := own()
				if len(v.members) == 1 {
					cg.remove(vi)
				} else {
					cg.views[vi] = v.withMembers(dropTwo(v.members, pos, pos))
				}
				break
			}
			if !stripped {
				// The user was decided for this leaf: undo the count.
				switch leaf.Classify(op.h, !mt.opts.DisableFastTest) {
				case geom.Covers:
					leaf.InCount--
				case geom.Excludes:
					leaf.OutCount--
				case geom.Cuts:
					// A cutting halfspace means the user was never absorbed
					// into this leaf's counts — it should have been pending.
					// The counts are left untouched (there is nothing sound
					// to undo), but the desync is recorded: invariant tests
					// fail on a nonzero counter instead of letting
					// InCount/OutCount drift silently from the alive
					// population.
					mt.run.st.CountDesyncs++
				}
			}
		}
		// Only an arrival can revive an eliminated leaf, and only a
		// departure can demote a reported one. A broken decision fires the
		// leaf into the caller's re-verification drain, which classifies
		// its pending users (and may split it) as AA does.
		switch leaf.Status {
		case celltree.Eliminated:
			if op.arrive && op.nAlive-leaf.OutCount >= mt.m {
				return mt.fire(e)
			}
		case celltree.Reported:
			if !op.arrive && leaf.InCount < mt.m {
				return mt.fire(e)
			}
		}
	}
	return false
}

// fire counts a leaf whose decision log op e broke, and panics unless e is
// the newest op.
func (mt *Maintainer) fire(e int) bool {
	if e != len(mt.log)-1 {
		panic(unsoundDeferral)
	}
	mt.run.tr.Stats.TouchedFrontier++
	return true
}

// applyOp applies one registered op: it joins the log, the routed descent
// stages it (settling any deferred backlog on the leaves it reaches) and
// collects the leaves it fires in tree-leaf order, those leaves are
// reactivated and drained with the op's population, the fired subtrees'
// bounds are refreshed, and a departure's row is freed. Pushing in
// tree-leaf order matters to the round-robin strategy, whose cursor
// follows the processing order.
func (mt *Maintainer) applyOp(op batchOp) {
	mt.run.nU = op.nAlive
	mt.log = append(mt.log, op)
	mt.fired = mt.fired[:0]
	pprof.Do(context.Background(), pprof.Labels("mir_phase", "verify"), func(context.Context) {
		mt.routeNode(mt.run.tr.Root)
	})
	if len(mt.fired) > 0 {
		pprof.Do(context.Background(), pprof.Labels("mir_phase", "seed"), func(context.Context) {
			for _, leaf := range mt.fired {
				mt.run.tr.Reactivate(leaf)
				if !mt.run.seq.verify(leaf) {
					mt.run.queue.Push(leaf, mt.run.priority(leaf))
				}
			}
		})
		mt.run.drain()
		// The drains may have split fired leaves: their subtrees need exact
		// routing bounds again, and so do their ancestor chains.
		for _, c := range mt.fired {
			mt.refreshSubtree(c)
			mt.pullUpChain(c.Parent())
		}
	}
	if !op.arrive {
		mt.free = append(mt.free, op.idx)
	}
	if len(mt.log) >= routeLogCap {
		mt.settleAll()
	}
}

// pendingOf returns the leaf's pending group list (empty when absent).
func pendingOf(c *celltree.Cell) *cellGroups {
	if cg, ok := c.Payload.(*cellGroups); ok && cg != nil {
		return cg
	}
	cg := &cellGroups{}
	c.Payload = cg
	return cg
}
