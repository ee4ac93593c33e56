package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"mir"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helpers must sort
	}
	return xs
}

// TestTailNeedsTenSamplesBeyond pins the percentile rule: a percentile is
// reported only with at least ten samples above it, highest first, with
// its sample count.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 9990, 10, true},
		{1000, 99, 990, 10, true},
		{999, 95, 950, 49, true}, // p99 would leave only 9 above
		{200, 95, 190, 10, true}, // integer rank: 190, not 191
		{21, 50, 11, 10, true},
		{15, 50, 8, 7, false}, // too few for any percentile
	}
	for _, c := range cases {
		q, ok := tail(seq(c.n))
		if ok != c.ok || q.P != c.p || q.Value != c.value || q.Beyond != c.beyond || q.N != c.n {
			t.Errorf("tail of %d samples = %+v, %v; want p%v = %v with %d beyond, %v",
				c.n, q, ok, c.p, c.value, c.beyond, c.ok)
		}
	}
	if _, ok := tail(nil); ok {
		t.Error("tail of no samples reported a percentile")
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}

// TestDueTimeLatencyWithStalledServer runs the open loop against a server
// that stalls its first reply. The requests queued behind the stall go out
// late, and their latency, timed from when they were due, includes the
// wait; nothing is skipped or retried.
func TestDueTimeLatencyWithStalledServer(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	c := newClient(srv.URL)

	const n, every = 10, 20 * time.Millisecond
	start := time.Now().Add(10 * time.Millisecond)
	got := openLoop(start, every, n, func(int) bool {
		st, err := c.do(http.MethodPost, "/users", map[string]int{"k": 1}, nil)
		return accepted(st, err)
	})
	if len(got) != n || calls.Load() != n {
		t.Fatalf("sent %d requests over %d calls, want %d", len(got), calls.Load(), n)
	}
	for i, s := range got {
		if !s.ok {
			t.Errorf("request %d failed", i)
		}
		if due := start.Add(time.Duration(i) * every); !s.due.Equal(due) {
			t.Errorf("request %d due %v, want %v", i, s.due, due)
		}
	}
	// Request 1 was due 20 ms in, but the connection was busy until the
	// stall ended: it went out late, and its latency counts the wait.
	if lag := got[1].lag(); lag < stall-every-5*time.Millisecond {
		t.Errorf("request 1 lag %v, want at least %v", lag, stall-every)
	}
	if got[1].latency() < got[1].done.Sub(got[1].sent)+stall/2 {
		t.Errorf("request 1 latency %v does not include the stall (service time %v)",
			got[1].latency(), got[1].done.Sub(got[1].sent))
	}
	// Visibility is timed from the due time too: a poll reply whose
	// applied count covers position 1 makes event 1 visible.
	polls := []poll{
		{at: start.Add(time.Second), daemonStats: daemonStats{Applied: 1}},
		{at: start.Add(2 * time.Second), daemonStats: daemonStats{Applied: 3}},
	}
	vis, missing := visibleLatencies(got[:4], []int{0, 1, 2, 3}, polls)
	want := []float64{1000, 2000 - 20, 2000 - 40}
	if missing != 1 || len(vis) != len(want) {
		t.Fatalf("visible = %v, missing %d; want %v, missing 1", vis, missing, want)
	}
	for i := range want {
		if d := vis[i] - want[i]; d < -1e-6 || d > 1e-6 {
			t.Errorf("event %d visible after %v ms, want %v", i, vis[i], want[i])
		}
	}
}

// TestFailedFracCounting checks what counts as failed: refusals (429),
// server errors, transport errors, departures whose arrival was refused
// (never sent), and wrong outputs; only wrong outputs make a run
// incorrect.
func TestFailedFracCounting(t *testing.T) {
	var posts, deletes atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			deletes.Add(1)
			w.WriteHeader(http.StatusAccepted)
			return
		}
		if posts.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"handle":7}`))
	}))
	defer srv.Close()

	pool := []mir.User{{Weights: []float64{1}, K: 1}}
	ig := &ingest{c: newClient(srv.URL), pool: pool, handles: map[int]int{0: 0}}
	var tl tally
	for _, s := range []step{
		{arrive: true, user: 0, handle: 1}, // 429: refused
		{handle: 1},                        // its departure: never sent
		{arrive: true, user: 0, handle: 2}, // accepted as daemon handle 7
		{handle: 2},                        // accepted
		{handle: 0},                        // accepted
	} {
		_, ok := ig.send(s)
		tl.op(ok)
	}
	if deletes.Load() != 2 || len(ig.accepted) != 3 {
		t.Errorf("%d deletes sent, %d events accepted; want 2 and 3", deletes.Load(), len(ig.accepted))
	}
	if ev := ig.accepted[1]; ev.Arrive || ev.Handle != 7 {
		t.Errorf("departure sent for %+v, want daemon handle 7", ev)
	}
	tl.op(accepted(http.StatusInternalServerError, nil))
	tl.op(accepted(0, os.ErrDeadlineExceeded))
	tl.check(true)
	tl.check(false)
	if tl.attempted != 9 || tl.failed != 5 || tl.wrong != 1 || tl.failedFrac() != 5.0/9 {
		t.Errorf("tally %+v, failed_frac %v; want 9 attempted, 5 failed, 1 wrong", tl, tl.failedFrac())
	}

	rep := newReport()
	rep.tally = tl
	for _, s := range endToEnd {
		rep.set(s.name, 1)
	}
	line, err := rep.result(config{workload: "standing"})
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 9 || res.Failed != 5 {
		t.Errorf("result %s: want correct=false, attempted 9, failed 5", line)
	}
}

// TestVisibilityPollsAreNotOperations checks that the /stats polls on the
// read connection, the benchmark's own probes, stay out of the tally even
// when they fail: only the /coverage reads and their checks count.
func TestVisibilityPollsAreNotOperations(t *testing.T) {
	var stats atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stats":
			if stats.Add(1) == 1 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"applied":0}`))
		case "/coverage":
			w.Write([]byte(`{"coverage":25,"inRegion":true,"boundaryGap":1}`))
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()

	done := make(chan struct{})
	close(done)
	pts := [][]float64{{0.5, 0.5, 0.5}, {0.6, 0.6, 0.6}}
	var tl tally
	reads, polls, err := readAndPoll(newClient(srv.URL), time.Now(), pts, done, func() int { return 0 }, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 || stats.Load() < 2 || len(polls) != int(stats.Load())-1 {
		t.Fatalf("%d reads, %d polls recorded of %d sent; want 2 reads and every poll but the refused one",
			len(reads), len(polls), stats.Load())
	}
	if tl.attempted != 4 || tl.failed != 0 {
		t.Errorf("tally %+v; want 4 attempted (2 reads, 2 checks) and 0 failed", tl)
	}
}

// TestSelfTimeOverlappingChildren checks that a span's self time
// subtracts the union of its children: overlapping children count once,
// and a child's part outside its parent is ignored.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var tr tracer
	root := tr.add("root", 0, at(0), at(100))
	tr.add("a", root, at(10), at(40))
	b := tr.add("b", root, at(30), at(60)) // overlaps a by 10
	tr.add("c", root, at(90), at(120))     // 20 outside the root
	tr.add("b.child", b, at(35), at(45))

	self := selfTimes(tr.spans)
	want := map[int]time.Duration{
		root: 40 * time.Millisecond, // 100 - |[10,60] ∪ [90,100]|
		b:    20 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	if u := unattributed(tr.spans, "root"); u < 0.4-1e-12 || u > 0.4+1e-12 {
		t.Errorf("unattributed = %v, want 0.4", u)
	}
	if got := layerSelf(tr.spans)["a"]; got != 0.03 {
		t.Errorf("layer a self time %v s, want 0.03", got)
	}

	// A check span is neither a layer nor residual: its time leaves the
	// root's time. Root 2 runs 100 ms: a layer for 20, a check for 50.
	root2 := tr.add("root", 0, at(200), at(300))
	tr.add("d", root2, at(200), at(220))
	tr.add(benchCheck, root2, at(250), at(300))
	// (40 + 30 residual) over (100 + 100 - 50 of checks)
	if u := unattributed(tr.spans, "root"); u < 70.0/150-1e-12 || u > 70.0/150+1e-12 {
		t.Errorf("unattributed with a check = %v, want %v", u, 70.0/150)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists in
// step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
