package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mir"
	"mir/internal/eventq"
)

// queuedEvent is one accepted ingest request: the population event plus,
// for arrivals, the handle the ingest layer promised the client.
type queuedEvent struct {
	ev     mir.MonitorEvent
	handle int // predicted handle for arrivals, -1 for departures
}

// epochSnap is one immutable generation of daemon state. The writer
// builds a fresh one after every drained burst and swaps the pointer;
// readers load it and answer entirely from it, so a read never blocks a
// maintenance pass and never observes a half-applied batch.
type epochSnap struct {
	epoch   uint64
	snap    *mir.Snapshot
	cells   int
	applied uint64 // cumulative events applied across all epochs
	// lastDrain is the size of the burst this epoch applied in one pass.
	// Together with the live queue depth/capacity it makes backpressure
	// observable before the 429 path fires: drains pinned at queue capacity
	// mean maintenance is running behind ingest.
	lastDrain int
	// drainDur is how long that maintenance pass took (apply + snapshot
	// rebuild). The 429 path derives its Retry-After hint from it: the last
	// observed pass duration is the best available estimate of when queue
	// capacity frees up.
	drainDur time.Duration
}

// server is the standing mIR daemon: a Monitor owned by one writer
// goroutine, a bounded coalescing ingest queue in front of it, and
// epoch-stamped snapshots behind it.
//
// Ingest correctness hinges on enqueue-time validation: the mutex-guarded
// shadow state (nextHandle, present) tracks the population exactly as it
// will stand after every queued event applies, and events enter the FIFO
// queue in the same order the shadow state advanced. ApplyEvents performs
// the same sequential validation, so an event accepted here cannot be
// rejected there — which is what lets the daemon answer clients before
// the event is applied, and what keeps one bad request from poisoning a
// coalesced batch (batches are atomic).
type server struct {
	mo       *mir.Monitor
	products [][]float64
	q        *eventq.Queue[queuedEvent]

	mu         sync.Mutex // guards the ingest shadow state below
	nextHandle int
	present    map[int]bool
	closing    bool

	cur  atomic.Pointer[epochSnap]
	hub  *watchHub
	done chan struct{} // closed when the writer has drained and exited

	// bodyTimeout bounds how long a POST /users body may take to arrive
	// (arriveBodyTimeout; tests shorten it).
	bodyTimeout time.Duration
}

func newServer(mo *mir.Monitor, products [][]float64, queueCap int) *server {
	s := &server{
		mo:          mo,
		products:    products,
		q:           eventq.New[queuedEvent](queueCap),
		nextHandle:  mo.NextHandle(),
		present:     make(map[int]bool),
		hub:         newWatchHub(),
		done:        make(chan struct{}),
		bodyTimeout: arriveBodyTimeout,
	}
	for h := 0; h < mo.NumUsers(); h++ {
		s.present[h] = true
	}
	s.cur.Store(&epochSnap{epoch: 0, snap: mo.Snapshot(), cells: mo.Region().NumCells()})
	return s
}

// start launches the writer goroutine. The Monitor must not be touched by
// anyone else from here on.
func (s *server) start() {
	go s.writerLoop()
}

// stop closes ingest, waits for the writer to drain every accepted event,
// and returns. Pending events are applied, not dropped: a client that got
// a 202 gets its event in the final region.
func (s *server) stop() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.q.Close()
	<-s.done
}

// writerLoop is the single consumer: each iteration drains the burst that
// accumulated during the previous maintenance pass, applies it with one
// ApplyEvents call, and publishes one snapshot and epoch for it. The
// Maintainer applies the burst's events one at a time, so coalescing saves
// the per-event snapshot and epoch, not maintenance work; because the
// result equals one-at-a-time application exactly, it is invisible to
// clients.
func (s *server) writerLoop() {
	defer close(s.done)
	var buf []queuedEvent
	for {
		var more bool
		buf, more = s.q.Drain(buf[:0])
		if len(buf) > 0 {
			passStart := time.Now()
			events := make([]mir.MonitorEvent, len(buf))
			for i, qe := range buf {
				events[i] = qe.ev
			}
			handles, err := s.mo.ApplyEvents(events)
			if err != nil {
				// Enqueue-time validation makes this unreachable; if it
				// ever trips, the shadow state diverged from the
				// Maintainer and continuing would serve wrong answers.
				log.Panicf("mird: accepted batch rejected by maintainer: %v", err)
			}
			for i, qe := range buf {
				if qe.handle >= 0 && handles[i] != qe.handle {
					log.Panicf("mird: handle prediction broken: promised %d, assigned %d",
						qe.handle, handles[i])
				}
			}
			prev := s.cur.Load()
			next := &epochSnap{
				epoch:     prev.epoch + 1,
				snap:      s.mo.Snapshot(),
				applied:   prev.applied + uint64(len(buf)),
				lastDrain: len(buf),
			}
			next.cells = next.snap.Region().NumCells()
			next.drainDur = time.Since(passStart)
			s.cur.Store(next)
			s.hub.notify()
		}
		if !more {
			return
		}
	}
}

// handler builds the HTTP API.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /users", s.handleArrive)
	mux.HandleFunc("DELETE /users/{handle}", s.handleDepart)
	mux.HandleFunc("GET /region", s.handleRegion)
	mux.HandleFunc("GET /coverage", s.handleCoverage)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /influence/topn", s.handleInfluence)
	mux.HandleFunc("GET /watch", s.handleWatch)
	return mux
}

// writeJSON marshals v before it commits the status, so a value JSON
// cannot encode (a non-finite float) becomes a 500 with an error body,
// never a 200 with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterHint converts the last observed maintenance-pass duration
// into whole seconds for the Retry-After header: the queue frees up when
// the current pass finishes, and the previous pass is the best estimate
// of how long that takes. Clamped to [1, 30] — HTTP wants a positive
// integer, and anything past half a minute says "come back later", not
// "wait out this pass".
func retryAfterHint(lastPass time.Duration) int {
	secs := int(math.Ceil(lastPass.Seconds()))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// tooBusy is the backpressure response: the queue is full because
// maintenance is behind, so the client should retry once the in-flight
// pass has likely drained it.
func (s *server) tooBusy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterHint(s.cur.Load().drainDur)))
	httpError(w, http.StatusTooManyRequests, "ingest queue full, retry")
}

type arriveRequest struct {
	Weights []float64 `json:"weights"`
	K       int       `json:"k"`
}

// maxArriveBody bounds a POST /users body. An arrival is a weight vector
// and a k, a few hundred bytes at any realistic dimensionality.
const maxArriveBody = 64 << 10

// arriveBodyTimeout bounds how long a POST /users body may take to arrive
// once the handler starts reading it. ReadHeaderTimeout covers only the
// headers, so without it a client that declares a Content-Length and then
// trickles or withholds the body holds the handler goroutine for as long
// as it keeps the connection open.
const arriveBodyTimeout = 10 * time.Second

func (s *server) handleArrive(w http.ResponseWriter, r *http.Request) {
	// The deadline stays set after the decode, so it also bounds the
	// server's discard of any unread body; the server resets the
	// connection's deadline before the next request. A ResponseWriter
	// without deadline support reads without one.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.bodyTimeout))
	var req arriveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxArriveBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		case errors.Is(err, os.ErrDeadlineExceeded):
			httpError(w, http.StatusRequestTimeout, "body not received within %v", s.bodyTimeout)
		default:
			httpError(w, http.StatusBadRequest, "bad body: %v", err)
		}
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	// The same checks ApplyEvents will apply, performed against the shadow
	// state so a rejection here costs nothing and an acceptance is final.
	if len(req.Weights) != len(s.products[0]) {
		httpError(w, http.StatusBadRequest, "user has %d weights, catalog dimensionality is %d",
			len(req.Weights), len(s.products[0]))
		return
	}
	positive := false
	for j, x := range req.Weights {
		if x < 0 {
			httpError(w, http.StatusBadRequest, "weight %d is %v; weights must be non-negative", j, x)
			return
		}
		positive = positive || x > 0
	}
	if !positive {
		httpError(w, http.StatusBadRequest, "weights are all zero; at least one must be positive")
		return
	}
	if req.K < 1 || req.K > len(s.products) {
		httpError(w, http.StatusBadRequest, "k=%d out of range [1,%d]", req.K, len(s.products))
		return
	}
	h := s.nextHandle
	err := s.q.Enqueue(queuedEvent{
		ev:     mir.Arrival(mir.User{Weights: req.Weights, K: req.K}),
		handle: h,
	})
	switch err {
	case nil:
		s.nextHandle++
		s.present[h] = true
		writeJSON(w, http.StatusAccepted, map[string]int{"handle": h})
	case eventq.ErrFull:
		s.tooBusy(w)
	default:
		httpError(w, http.StatusServiceUnavailable, "shutting down")
	}
}

func (s *server) handleDepart(w http.ResponseWriter, r *http.Request) {
	h, err := strconv.Atoi(r.PathValue("handle"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad handle: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	// present reflects every already-queued event, so a duplicate DELETE
	// for a departure still in the queue is caught here (404), never
	// coalesced into a batch it would invalidate.
	if !s.present[h] {
		httpError(w, http.StatusNotFound, "no such user %d", h)
		return
	}
	switch err := s.q.Enqueue(queuedEvent{ev: mir.Departure(h), handle: -1}); err {
	case nil:
		delete(s.present, h)
		writeJSON(w, http.StatusAccepted, map[string]int{"handle": h})
	case eventq.ErrFull:
		s.tooBusy(w)
	default:
		httpError(w, http.StatusServiceUnavailable, "shutting down")
	}
}

type constraintJSON struct {
	W []float64 `json:"w"`
	T float64   `json:"t"`
}

type cellJSON struct {
	Constraints []constraintJSON `json:"constraints"`
}

func (s *server) handleRegion(w http.ResponseWriter, r *http.Request) {
	es := s.cur.Load()
	reg := es.snap.Region()
	cells := make([]cellJSON, 0, reg.NumCells())
	for _, c := range reg.Cells() {
		cs := c.Constraints()
		cj := cellJSON{Constraints: make([]constraintJSON, len(cs))}
		for i, h := range cs {
			cj.Constraints[i] = constraintJSON{W: h.W, T: h.T}
		}
		cells = append(cells, cj)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": es.epoch,
		"m":     reg.M(),
		"dim":   reg.Dim(),
		"cells": cells,
	})
}

func parsePointParam(r *http.Request, dim int) ([]float64, error) {
	raw := r.URL.Query().Get("point")
	if raw == "" {
		return nil, fmt.Errorf("missing point parameter")
	}
	parts := strings.Split(raw, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("point has %d coordinates, want %d", len(parts), dim)
	}
	p := make([]float64, dim)
	for i, part := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("bad coordinate %q", part)
		}
		p[i] = x
	}
	return p, nil
}

func (s *server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	es := s.cur.Load()
	p, err := parsePointParam(r, es.snap.Region().Dim())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The gap is +Inf when no user boundary exists (an empty population);
	// JSON has no infinity, so that gap is served as null.
	var gap *float64
	if g := es.snap.MinBoundaryGap(p); !math.IsInf(g, 1) {
		gap = &g
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":       es.epoch,
		"coverage":    es.snap.Coverage(p),
		"inRegion":    es.snap.Region().Contains(p),
		"boundaryGap": gap,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.cur.Load()
	st := es.snap.Region().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":            es.epoch,
		"numUsers":         es.snap.NumUsers(),
		"numProducts":      len(s.products),
		"cells":            es.cells,
		"applied":          es.applied,
		"queueLen":         s.q.Len(),
		"queueCap":         s.q.Cap(),
		"lastDrainSize":    es.lastDrain,
		"lastDrainSeconds": es.drainDur.Seconds(),
		"countDesyncs":     st.CountDesyncs,
		// Routed-maintenance locality profile (cumulative since startup):
		// leaves visited by event application, subtree skips proven safe,
		// and leaves re-verified. routedLeaves/applied is the sublinearity
		// signal internal/core's TestStandingWorkGate bounds.
		"routedLeaves":    st.RoutedLeaves,
		"skippedSubtrees": st.SkippedSubtrees,
		"touchedFrontier": st.TouchedFrontier,
	})
}

func (s *server) handleInfluence(w http.ResponseWriter, r *http.Request) {
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad n %q", raw)
			return
		}
		n = v
	}
	es := s.cur.Load()
	top := es.snap.MostInfluential(n)
	out := make([]map[string]int, len(top))
	for i, in := range top {
		out[i] = map[string]int{"product": in.ProductIndex, "coverage": in.Coverage}
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": es.epoch, "top": out})
}

// watchHub fans epoch ticks out to SSE clients. Each client owns a
// buffered tick channel; notify never blocks the writer — a slow client
// misses intermediate ticks but always reads the LATEST snapshot when it
// wakes, so no state change goes unobserved, only unreported
// intermediates (exactly the coalescing semantics of the ingest side).
type watchHub struct {
	mu      sync.Mutex
	clients map[chan struct{}]bool
}

func newWatchHub() *watchHub {
	return &watchHub{clients: make(map[chan struct{}]bool)}
}

func (h *watchHub) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.clients[ch] = true
	h.mu.Unlock()
	return ch
}

func (h *watchHub) unsubscribe(ch chan struct{}) {
	h.mu.Lock()
	delete(h.clients, ch)
	h.mu.Unlock()
}

func (h *watchHub) notify() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.clients {
		select {
		case ch <- struct{}{}:
		default: // client already has a pending tick
		}
	}
}

// watchState is one client's view of the alert-relevant state: the region
// cell count plus, per watched product, whether it currently sits in the
// region.
type watchState struct {
	cells  int
	member map[int]bool
}

func (s *server) watchStateAt(es *epochSnap, watched []int) watchState {
	ws := watchState{cells: es.cells, member: make(map[int]bool, len(watched))}
	reg := es.snap.Region()
	for _, pi := range watched {
		ws.member[pi] = reg.Contains(s.products[pi])
	}
	return ws
}

// handleWatch streams server-sent events: one "change" event whenever the
// region's cell count or a watched product's region membership differs
// from the previous epoch the client saw. ?product=i (repeatable) selects
// the watched products.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var watched []int
	for _, raw := range r.URL.Query()["product"] {
		pi, err := strconv.Atoi(raw)
		if err != nil || pi < 0 || pi >= len(s.products) {
			httpError(w, http.StatusBadRequest, "bad product %q", raw)
			return
		}
		watched = append(watched, pi)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	es := s.cur.Load()
	prev := s.watchStateAt(es, watched)
	fmt.Fprintf(w, "event: hello\ndata: {\"epoch\":%d,\"cells\":%d}\n\n", es.epoch, prev.cells)
	flusher.Flush()

	ticks := s.hub.subscribe()
	defer s.hub.unsubscribe(ticks)
	lastEpoch := es.epoch
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-ticks:
		}
		es := s.cur.Load()
		if es.epoch == lastEpoch {
			continue
		}
		lastEpoch = es.epoch
		cur := s.watchStateAt(es, watched)
		changed := cur.cells != prev.cells
		var flips []string
		for _, pi := range watched {
			if cur.member[pi] != prev.member[pi] {
				changed = true
				flips = append(flips, fmt.Sprintf("{\"product\":%d,\"inRegion\":%v}", pi, cur.member[pi]))
			}
		}
		if changed {
			fmt.Fprintf(w, "event: change\ndata: {\"epoch\":%d,\"cells\":%d,\"flips\":[%s]}\n\n",
				es.epoch, cur.cells, strings.Join(flips, ","))
			flusher.Flush()
		}
		prev = cur
	}
}
