package mir

import (
	"fmt"

	"mir/internal/core"
	"mir/internal/geom"
	"mir/internal/topk"
)

// Monitor keeps an m-impact region continuously up to date while users
// arrive and depart — the dynamic-population scenario the paper sketches
// as future work (e.g. "users currently online" for real-time
// advertising). Rather than recomputing on every change, it retains the
// computed arrangement and re-examines only the cells whose decision the
// change can affect.
//
// A Monitor is not safe for concurrent use.
type Monitor struct {
	mt  *core.Maintainer
	dim int
}

// NewMonitor computes the initial m-impact region for the product catalog
// and user population and prepares for incremental updates.
//
// The inputs are deep-copied: callers may mutate or reuse their slices
// after NewMonitor returns without corrupting the Monitor.
func NewMonitor(products [][]float64, users []User, m int) (*Monitor, error) {
	return NewMonitorOptions(products, users, m, nil)
}

// NewMonitorOptions is NewMonitor with algorithm options. The computed
// region is identical for every Options.Workers setting — the incremental
// updates run through the same deterministic task-parallel frontier as
// full computations — so the knob trades only latency for cores.
func NewMonitorOptions(products [][]float64, users []User, m int, opts *Options) (*Monitor, error) {
	ps, us := convert(products, users)
	co := opts.toCore()
	inst, err := core.NewInstanceOpts(ps, us, co)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	if err := inst.CheckM(m); err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	mt, err := core.NewMaintainer(inst, m, co)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return &Monitor{mt: mt, dim: inst.Dim}, nil
}

// Region returns the current m-impact region.
func (mo *Monitor) Region() *Region { return newRegion(mo.mt.Region()) }

// NumUsers returns the current population size.
func (mo *Monitor) NumUsers() int { return mo.mt.NumUsers() }

// Coverage returns how many current users a product at the given point
// would cover.
func (mo *Monitor) Coverage(point []float64) int {
	return mo.mt.CountCovering(geom.Vector(point))
}

// UserArrived registers a new user and updates the region. The returned
// handle identifies the user for a later UserDeparted call.
//
// Handle contract: valid handles are non-negative and unique for the
// Monitor's lifetime — initial users carry handles 0..len(users)-1 in
// input order, and each successful UserArrived returns the next unused
// integer. On error the returned handle is -1, which never collides with
// a valid handle. The weight slice is deep-copied; the caller may reuse
// it afterward.
func (mo *Monitor) UserArrived(u User) (handle int, err error) {
	w := append(make(geom.Vector, 0, len(u.Weights)), u.Weights...)
	h, err := mo.mt.AddUser(topk.UserPref{W: w, K: u.K})
	if err != nil {
		return -1, fmt.Errorf("mir: %w", err)
	}
	return h, nil
}

// UserDeparted retires a user previously registered (initial users carry
// handles 0..len(users)-1 in input order) and updates the region.
func (mo *Monitor) UserDeparted(handle int) error {
	if err := mo.mt.RemoveUser(handle); err != nil {
		return fmt.Errorf("mir: %w", err)
	}
	return nil
}

// NextHandle returns the handle the next successful arrival will receive.
// Handles are assigned sequentially, so the i-th arrival of a batch (or of
// any run of successful UserArrived calls) gets NextHandle()+i; queueing
// layers use this to hand out handles before the event is applied.
func (mo *Monitor) NextHandle() int { return mo.mt.NextHandle() }

// MinBoundaryGap returns the smallest |w·p - t| over the current users:
// how far (in score units) the point sits from the nearest top-k entry
// boundary. With no users there is no boundary and the gap is +Inf (the
// identity of min) — callers comparing against a finite threshold treat
// an empty population as "far from every boundary", never as near one.
func (mo *Monitor) MinBoundaryGap(point []float64) float64 {
	return mo.mt.MinBoundaryGap(geom.Vector(point))
}

// MonitorEvent is one population change for Monitor.ApplyEvents. Use
// Arrival and Departure to construct them.
type MonitorEvent struct {
	// Arrive selects between an arrival (User is read) and a departure
	// (Handle is read).
	Arrive bool
	User   User
	Handle int
}

// Arrival returns an arrival event for u.
func Arrival(u User) MonitorEvent { return MonitorEvent{Arrive: true, User: u} }

// Departure returns a departure event for the given handle.
func Departure(handle int) MonitorEvent { return MonitorEvent{Handle: handle} }

// ApplyEvents applies a batch of arrivals and departures and returns one
// handle per event: the assigned handle for arrivals (NextHandle()+i for
// the i-th arrival, exactly as if applied one at a time), -1 for
// departures.
//
// The batch is atomic: every event is validated up front against the
// population state it would see in sequence — a departure may name an
// arrival earlier in the same batch — and any invalid event rejects the
// whole batch with no state change. A valid batch is then applied one
// event at a time, so the region and Stats equal those of the same
// events through UserArrived/UserDeparted, and the batch costs what they
// would: it saves the caller per-event calls (and, in a daemon, the
// per-event snapshots), not maintenance work. Weight slices are
// deep-copied; callers may reuse them afterward.
func (mo *Monitor) ApplyEvents(events []MonitorEvent) ([]int, error) {
	evs := make([]core.Event, len(events))
	for i, ev := range events {
		if ev.Arrive {
			w := append(make(geom.Vector, 0, len(ev.User.Weights)), ev.User.Weights...)
			evs[i] = core.Event{Kind: core.EventArrive, User: topk.UserPref{W: w, K: ev.User.K}}
		} else {
			evs[i] = core.Event{Kind: core.EventDepart, Handle: ev.Handle}
		}
	}
	handles, err := mo.mt.ApplyBatch(evs)
	if err != nil {
		return nil, fmt.Errorf("mir: %w", err)
	}
	return handles, nil
}

// Snapshot is an immutable capture of a Monitor's state. The Monitor
// itself is not safe for concurrent use; a Snapshot is — any number of
// goroutines may query it while the Monitor keeps mutating. The standing
// daemon serves all reads from the latest snapshot and swaps in a fresh
// one after each maintenance pass.
type Snapshot struct {
	s   *core.MaintSnapshot
	reg *Region
}

// Snapshot captures the current region and population for concurrent
// reading. Must not be called concurrently with mutations (it is a
// Monitor method); the returned Snapshot is goroutine-safe.
func (mo *Monitor) Snapshot() *Snapshot {
	s := mo.mt.Snapshot()
	return &Snapshot{s: s, reg: newRegion(s.Region())}
}

// Region returns the snapshot's m-impact region.
func (s *Snapshot) Region() *Region { return s.reg }

// NumUsers returns the population size at capture time.
func (s *Snapshot) NumUsers() int { return s.s.NumUsers() }

// Coverage returns how many capture-time users a product at the given
// point would cover.
func (s *Snapshot) Coverage(point []float64) int {
	return s.s.CountCovering(geom.Vector(point))
}

// MinBoundaryGap mirrors Monitor.MinBoundaryGap at capture time,
// including its empty-population contract (+Inf with no users).
func (s *Snapshot) MinBoundaryGap(point []float64) float64 {
	return s.s.MinBoundaryGap(geom.Vector(point))
}

// MostInfluential returns the n products with the largest reverse top-k
// sets over the capture-time population, coverage descending with ties
// toward the smaller product index.
func (s *Snapshot) MostInfluential(n int) []Influence {
	top := s.s.MostInfluential(n)
	out := make([]Influence, len(top))
	for i, in := range top {
		out[i] = Influence{ProductIndex: in.Product, Coverage: in.Coverage}
	}
	return out
}
