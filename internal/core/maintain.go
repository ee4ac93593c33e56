package core

import (
	"context"
	"fmt"
	"math"
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
// User indices are stable: removed slots are tombstoned, and new users
// take fresh indices.
type Maintainer struct {
	products []geom.Vector
	dim      int
	m        int
	opts     Options

	users  []topk.UserPref
	alive  []bool
	nAlive int

	// search answers arriving users' top-k thresholds from the instance's
	// shared layered index. The Maintainer is single-threaded, so one
	// searcher suffices.
	search *topk.Searcher

	run *aaRun

	// log is the staged-event history (batchOp per event) and logBase the
	// absolute index of log[0]. Routed maintenance (routed=true, the
	// default) appends each batch, lets deferred subtrees lag behind it
	// (celltree.Cell.MaintSeq records how far each node has caught up), and
	// compacts once the backlog reaches routeLogCap; the full-sweep path
	// truncates the log every batch, since every leaf is staged to the end
	// before the batch returns. See route.go.
	log     []batchOp
	logBase int
	routed  bool

	// leavesBuf and subBuf are scratch for leaf enumerations (full-tree
	// sweeps and fired-subtree re-staging), reused across events and drains
	// so steady-state maintenance does not allocate a leaf slice per sweep.
	leavesBuf []*celltree.Cell
	subBuf    []*celltree.Cell
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
		products: inst.Products,
		dim:      inst.Dim,
		m:        m,
		opts:     opts,
		users:    inst.Users,
		alive:    make([]bool, len(inst.Users)),
		nAlive:   len(inst.Users),
		search:   topk.NewSearcher(inst.TopKIndex),
		run:      run,
	}
	for i := range mt.alive {
		mt.alive[i] = true
	}
	mt.routed = !opts.DisableRouting
	if mt.routed {
		// Settle the routing bounds of the freshly built arrangement so the
		// first batch's descent starts from exact per-subtree values.
		mt.refreshSubtree(mt.run.tr.Root)
	}
	return mt, nil
}

// NumUsers returns the current (alive) user count.
func (mt *Maintainer) NumUsers() int { return mt.nAlive }

// Region extracts the current m-impact region from the maintained
// arrangement.
func (mt *Maintainer) Region() *Region {
	return mt.run.region()
}

// CountCovering returns the number of alive users covering point p.
func (mt *Maintainer) CountCovering(p geom.Vector) int {
	n := 0
	for i, h := range mt.run.inst.HS {
		if mt.alive[i] && h.Contains(p) {
			n++
		}
	}
	return n
}

// MinBoundaryGap mirrors Instance.MinBoundaryGap over alive users. With
// no users alive there is no boundary, so the gap is +Inf (the identity
// of min), never a finite sentinel a caller could mistake for a distance.
func (mt *Maintainer) MinBoundaryGap(p geom.Vector) float64 {
	best := math.Inf(1)
	for i, h := range mt.run.inst.HS {
		if !mt.alive[i] {
			continue
		}
		g := h.Eval(p)
		if g < 0 {
			g = -g
		}
		if g < best {
			best = g
		}
	}
	return best
}

// AddUser registers a new user, updates the region incrementally, and
// returns the user's index (for a later RemoveUser). Valid indices are
// non-negative; on error the returned index is -1, so it can never be
// mistaken for the first user's index 0.
//
// The new user becomes a singleton pending view on every leaf, decided or
// not, so that the accounting invariant (counts + pending = alive users)
// survives future reactivations. Reported cells stay reported (their
// coverage only grows); eliminated cells whose bound now allows reaching m
// are revived and resume processing. AddUser is a single-event ApplyBatch —
// the batch path is byte-identical to the historical per-event sweep (see
// ApplyBatch), and funneling both through one staging pass is what lets
// routed maintenance serve singles and bursts with the same descent.
func (mt *Maintainer) AddUser(u topk.UserPref) (int, error) {
	handles, err := mt.ApplyBatch([]Event{{Kind: EventArrive, User: u}})
	if err != nil {
		return -1, err
	}
	return handles[0], nil
}

// RemoveUser retires the user at the given index and updates the region
// incrementally: the user is stripped from every leaf's pending views and
// counts, and reported leaves whose decision the removal broke are
// re-verified. Like AddUser, it is a single-event ApplyBatch.
func (mt *Maintainer) RemoveUser(idx int) error {
	_, err := mt.ApplyBatch([]Event{{Kind: EventDepart, Handle: idx}})
	return err
}

// NextHandle returns the handle the next successful arrival will receive
// (handles are append-only; removed slots are tombstoned, never reused).
// An ingest layer queueing arrivals can therefore predict handles at
// enqueue time: with every event funneled through one FIFO queue, the
// i-th queued arrival gets NextHandle()+i.
func (mt *Maintainer) NextHandle() int { return len(mt.users) }

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

// batchOp is an event in staged form: an arrival's singleton pending
// group or a departure's influential halfspace, plus the population size
// right after the event.
type batchOp struct {
	arrive bool
	idx    int
	g      *Group
	h      geom.Halfspace
	nAlive int
}

// ApplyBatch applies a sequence of arrivals and departures in one
// maintenance pass and returns one handle per event (the arrival's new
// handle, -1 for departures). The batch is atomic on error: every event
// is validated up front against the population as it evolves through the
// sequence (a departure may target an arrival earlier in the same batch),
// and an invalid event rejects the whole batch with the Maintainer
// untouched.
//
// The batch is coalesced, never reordered: the resulting arrangement —
// cells, counts, and the exported region — is byte-identical to applying
// the same events one at a time through AddUser/RemoveUser, for every
// worker count and group-choice strategy. The construction guarantees
// this rather than approximating it:
//
//   - Staging is fused. One sweep over the current leaves replays the
//     whole event sequence against each leaf (one payload clone per leaf
//     instead of one per leaf per event). This is sound because a decided
//     leaf's pending list is unobservable until the leaf is re-verified,
//     and per-leaf staging is a pure fold over the event sequence.
//   - Re-verification is bucketed by event. A leaf whose decision event e
//     breaks (a report demoted by a departure, an elimination revived by
//     an arrival) stops staging at e. Buckets then drain in event order:
//     each drain re-enumerates the tree in leaf order — reproducing the
//     push order of the sequential per-event sweep, which the round-robin
//     ablation strategy is sensitive to — and runs with the event-e
//     population and exactly the events 0..e applied to every cell it
//     touches: precisely the state the sequential drain for event e ran
//     under. Leaves produced or re-decided by a drain resume staging at
//     e+1, so every leaf sees every event exactly once.
//
// Cell processing commutes across independent cells (see processCell), so
// the only counter that may differ from the one-at-a-time path is the
// scheduling-sensitive Stats.MaxFrontier.
func (mt *Maintainer) ApplyBatch(events []Event) ([]int, error) {
	if len(events) == 0 {
		return nil, nil
	}
	// Validate the whole batch before mutating anything, simulating the
	// population overlay (arrivals and departures earlier in the batch).
	handles := make([]int, len(events))
	nAfter := make([]int, len(events))
	var born, dead map[int]bool
	next := len(mt.users)
	n := mt.nAlive
	for i, ev := range events {
		switch ev.Kind {
		case EventArrive:
			if len(ev.User.W) != mt.dim {
				return nil, fmt.Errorf("%w: event %d: new user has %d weights, want %d",
					ErrDimMismatch, i, len(ev.User.W), mt.dim)
			}
			if j := firstNonFinite(ev.User.W); j >= 0 {
				return nil, fmt.Errorf("%w: event %d: new user weight %d is %v",
					ErrNonFinite, i, j, ev.User.W[j])
			}
			if j := firstNegative(ev.User.W); j >= 0 {
				return nil, fmt.Errorf("%w: event %d: new user weight %d is %v",
					ErrNegativeWeight, i, j, ev.User.W[j])
			}
			if ev.User.K < 1 || ev.User.K > len(mt.products) {
				return nil, fmt.Errorf("%w: event %d: new user has k=%d (|P|=%d)",
					ErrBadK, i, ev.User.K, len(mt.products))
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
			present := hd >= 0 && ((hd < len(mt.users) && mt.alive[hd]) || born[hd]) && !dead[hd]
			if !present {
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

	// Register arrivals (thresholds answered in event order, so the search
	// counters accumulate exactly as per-event AddUser calls would) and
	// capture departures' halfspaces. The instance arrays are append-only
	// and nothing reads a user's row before its arrival event is staged,
	// so appending all arrivals up front is equivalent to interleaving.
	inst := mt.run.inst
	ops := make([]batchOp, len(events))
	for i, ev := range events {
		if ev.Kind != EventArrive {
			continue
		}
		u := ev.User
		mt.search.Stats = topk.SearchStats{}
		kth := mt.search.Kth(u.W, u.K)
		mt.run.st.ScannedProducts += mt.search.Stats.ScannedProducts
		mt.run.st.LayerPrunes += mt.search.Stats.LayerPrunes
		mt.users = append(mt.users, u)
		mt.alive = append(mt.alive, true)
		inst.Users = append(inst.Users, u)
		inst.Kth = append(inst.Kth, kth)
		inst.HS = append(inst.HS, geom.Halfspace{W: u.W, T: kth.Score})
		if mt.dim > 1 {
			inst.WProj = append(inst.WProj, u.W[:mt.dim-1])
		} else {
			inst.WProj = append(inst.WProj, u.W)
		}
		ops[i] = batchOp{arrive: true, idx: handles[i],
			g:      &Group{Pivot: kth.Index, R: mt.products[kth.Index], Members: []int{handles[i]}},
			h:      geom.Halfspace{W: u.W, T: kth.Score},
			nAlive: nAfter[i]}
	}
	for i, ev := range events {
		if ev.Kind != EventDepart {
			continue
		}
		mt.alive[ev.Handle] = false
		ops[i] = batchOp{idx: ev.Handle, h: inst.HS[ev.Handle], nAlive: nAfter[i]}
	}
	mt.nAlive = nAfter[len(events)-1]

	mt.applyLog(ops)
	return handles, nil
}

// mineHeadroom is the padding the threshold miner adds beyond the bare
// decision proof. AA decides every leaf the moment the decision is provable,
// so decided leaves sit exactly at their threshold (revival slack m-1,
// coverage count m) and any event that moves the right count threatens all
// of them at once. Mining past the minimum by this many users leaves the
// proof able to absorb that many adverse events before the leaf is
// threatened again — which is what lets ancestor subtrees defer whole
// event windows instead of descending on every arrival.
const mineHeadroom = 8

// minePending classifies a leaf's pending users against the leaf until the
// decision proof is restored with headroom — OutCount reaching want when
// mineOut is set, InCount reaching it otherwise — or the pool is exhausted.
// Conclusive users move from the pending views into the counts — exactly
// the classification a re-verification drain would reach, reached now —
// and cut users stay pending. Mining is keyed to replayed log positions
// (stageLeaf calls it per op), never to when a leaf happens to be visited,
// which is what keeps the routed and swept modes byte-identical: the same
// op sequence mines the same users at the same events in both.
func (mt *Maintainer) minePending(leaf *celltree.Cell, own func() *cellGroups, mineOut bool, want int) {
	done := func() bool {
		if mineOut {
			return leaf.OutCount >= want
		}
		return leaf.InCount >= want
	}
	if len(pendingOf(leaf).views) == 0 {
		return
	}
	cg := own()
	for vi := 0; vi < len(cg.views) && !done(); {
		v := cg.views[vi]
		// kept is built lazily: views are shared between sibling leaves, so
		// a mutated member list must be a fresh slice, but a view that mines
		// nothing is kept as-is without copying.
		var kept []int
		mined := false
		for pos, ui := range v.members {
			if mined && done() {
				kept = append(kept, v.members[pos:]...)
				break
			}
			switch leaf.Classify(mt.run.inst.HS[ui], !mt.opts.DisableFastTest) {
			case geom.Covers:
				leaf.InCount++
			case geom.Excludes:
				leaf.OutCount++
			default: // Cuts: stays pending
				if mined {
					kept = append(kept, ui)
				}
				continue
			}
			if !mined {
				mined = true
				kept = append(make([]int, 0, len(v.members)-1), v.members[:pos]...)
			}
		}
		if !mined {
			vi++
			continue
		}
		if len(kept) == 0 {
			cg.remove(vi) // swap-delete: revisit index vi
			continue
		}
		cg.views[vi] = v.withMembers(kept)
		vi++
	}
}

// stageLeaf replays mt.log[from:] against one leaf, cloning its payload on
// first mutation and stopping — the event index and leaf handed to fire for
// re-verification bucketing — at the first event that breaks the leaf's
// decision. from indexes mt.log (subtract logBase from an absolute
// MaintSeq). The leaf is marked current through the end of the log up
// front: a fired remainder is completed by the caller's drain/re-stage loop
// before the pass returns, so the mark is true by the time anything reads
// it. Reports whether the leaf fired.
func (mt *Maintainer) stageLeaf(leaf *celltree.Cell, from int, fire func(e int, leaf *celltree.Cell)) bool {
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
		// Keep the decision proof padded: whenever the leaf's margin is
		// inside the headroom band, mine pending users back into the counts
		// before checking the fire condition. AA decides leaves exactly at
		// their threshold, and a zero-headroom leaf pins its whole ancestor
		// chain's routing bounds at the threshold too — one inconclusive
		// event per window would force the descent right back here. The
		// mined padding is what lets later windows defer above this leaf.
		// Only then can a fire still be warranted (arrivals alone raise
		// revival slack; departures alone lower coverage), meaning the
		// pending pool genuinely ran dry.
		switch leaf.Status {
		case celltree.Eliminated:
			if want := op.nAlive - mt.m + 1 + mineHeadroom; leaf.OutCount < want {
				mt.minePending(leaf, own, true, want)
			}
			if op.arrive && op.nAlive-leaf.OutCount >= mt.m {
				mt.run.tr.Stats.TouchedFrontier++
				fire(e, leaf)
				return true
			}
		case celltree.Reported:
			if want := mt.m + mineHeadroom; leaf.InCount < want {
				mt.minePending(leaf, own, false, want)
			}
			if !op.arrive && leaf.InCount < mt.m {
				mt.run.tr.Stats.TouchedFrontier++
				fire(e, leaf)
				return true
			}
		}
	}
	return false
}

// applyLog stages a validated, registered batch of ops against the
// arrangement and drains the re-verification buckets in event order. With
// routing enabled the staging phase is routeNode's pruned descent (leaves
// under deferred subtrees are not visited at all); otherwise it is the
// historical full sweep. Everything downstream of staging — bucket drains
// with the event-time population, fired-subtree re-staging at e+1 — is
// shared, which is the heart of the routing-on/off byte-identity argument:
// the two modes bucket the same leaves at the same events and push them in
// the same leaf order, so every drain runs under identical state.
func (mt *Maintainer) applyLog(ops []batchOp) {
	if mt.routed {
		mt.log = append(mt.log, ops...)
	} else {
		// The full sweep stages every leaf through the end of each batch, so
		// the processed prefix is dead: advance the base over it and let the
		// new batch reuse the backing array.
		mt.logBase += len(mt.log)
		mt.log = append(mt.log[:0], ops...)
	}
	// Buckets span the whole log, not just this batch: a routed leaf
	// settles its backlog right before the new ops. Deferral proofs
	// guarantee backlog events never fire (see route.go), so only the tail
	// batch's buckets can fill — but indexing the full range keeps that a
	// provable property rather than a structural assumption.
	buckets := make([][]*celltree.Cell, len(mt.log))
	fire := func(e int, leaf *celltree.Cell) {
		buckets[e] = append(buckets[e], leaf)
	}
	pprof.Do(context.Background(), pprof.Labels("mir_phase", "verify"), func(context.Context) {
		if mt.routed {
			mt.routeNode(mt.run.tr.Root, fire)
		} else {
			mt.leavesBuf = mt.run.tr.Leaves(nil, mt.leavesBuf[:0])
			for _, leaf := range mt.leavesBuf {
				mt.stageLeaf(leaf, 0, fire)
			}
		}
	})
	// refresh collects every fired cell once, in firing order: their
	// subtrees (splits included) need exact routing bounds again after the
	// drains. A slice, not a map, so the post-drain walk is deterministic.
	var refresh []*celltree.Cell
	var seen map[*celltree.Cell]bool
	for e := 0; e < len(mt.log); e++ {
		cells := buckets[e]
		if len(cells) == 0 {
			continue
		}
		mt.run.nU = mt.log[e].nAlive
		// Stage the fired leaves onto the frontier queue.
		pprof.Do(context.Background(), pprof.Labels("mir_phase", "seed"), func(context.Context) {
			if mt.routed {
				mt.pushFired(cells)
				if seen == nil {
					seen = make(map[*celltree.Cell]bool, len(cells))
				}
				for _, c := range cells {
					if !seen[c] {
						seen[c] = true
						refresh = append(refresh, c)
					}
				}
			} else {
				fired := make(map[*celltree.Cell]bool, len(cells))
				for _, c := range cells {
					fired[c] = true
				}
				// Push in current leaf order — the order the per-event sweep
				// would have used — not bucket-append order.
				mt.leavesBuf = mt.run.tr.Leaves(nil, mt.leavesBuf[:0])
				for _, leaf := range mt.leavesBuf {
					if !fired[leaf] {
						continue
					}
					mt.run.tr.Reactivate(leaf)
					if !mt.run.seq.verify(leaf) {
						mt.run.queue.Push(leaf, mt.run.priority(leaf))
					}
				}
			}
		})
		mt.run.drain()
		if e+1 < len(mt.log) {
			pprof.Do(context.Background(), pprof.Labels("mir_phase", "verify"), func(context.Context) {
				for _, c := range cells {
					mt.subBuf = mt.run.tr.Leaves(c, mt.subBuf[:0])
					for _, leaf := range mt.subBuf {
						mt.stageLeaf(leaf, e+1, fire)
					}
				}
			})
		}
	}
	mt.run.nU = mt.nAlive
	if mt.routed {
		for _, c := range refresh {
			mt.refreshSubtree(c)
			mt.pullUpChain(c.Parent())
		}
		if len(mt.log) >= routeLogCap {
			mt.settleAll()
		}
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
