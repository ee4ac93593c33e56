package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mir"
)

func testMonitor(t *testing.T, nP, nU, d, k, m int) (*mir.Monitor, [][]float64) {
	t.Helper()
	products := mir.SynthProducts(mir.Independent, nP, d, 11)
	users := mir.SynthUsers(mir.Clustered, nU, d, k, 12)
	mo, err := mir.NewMonitor(products, users, m)
	if err != nil {
		t.Fatal(err)
	}
	return mo, products
}

func postArrival(client *http.Client, base string, weights []float64, k int) (int, int, error) {
	body, _ := json.Marshal(map[string]any{"weights": weights, "k": k})
	resp, err := client.Post(base+"/users", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, -1, err
	}
	defer resp.Body.Close()
	var out struct {
		Handle int `json:"handle"`
	}
	out.Handle = -1
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Handle, nil
}

func deleteUser(client *http.Client, base string, handle int) (int, error) {
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/users/%d", base, handle), nil)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestMirdSmokeReadsDuringWrites is the daemon's core concurrency smoke
// (run under -race by `make mird-smoke`): writer goroutines push
// arrival/departure bursts — retrying on 429 backpressure — while reader
// goroutines hammer every read endpoint; every read must succeed and each
// reader must observe a non-decreasing epoch. After a graceful stop, the
// population must equal the initial users plus the net accepted events.
func TestMirdSmokeReadsDuringWrites(t *testing.T) {
	mo, products := testMonitor(t, 200, 16, 3, 5, 6)
	srv := newServer(mo, products, 64)
	srv.start()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	client := ts.Client()

	const writers, eventsPerWriter = 2, 15
	var mu sync.Mutex
	netUsers := 16

	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < eventsPerWriter; i++ {
				w := []float64{0.2 + 0.01*float64(wtr), 0.3 + 0.01*float64(i), 0.5}
				for {
					status, h, err := postArrival(client, ts.URL, w, 4)
					if err != nil {
						t.Errorf("writer %d: %v", wtr, err)
						return
					}
					if status == http.StatusAccepted {
						if h < 0 {
							t.Errorf("writer %d: accepted arrival without handle", wtr)
							return
						}
						mine = append(mine, h)
						mu.Lock()
						netUsers++
						mu.Unlock()
						break
					}
					if status != http.StatusTooManyRequests {
						t.Errorf("writer %d: arrival status %d", wtr, status)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				// Depart an earlier arrival of ours every third event.
				if i%3 == 2 {
					h := mine[0]
					mine = mine[1:]
					for {
						status, err := deleteUser(client, ts.URL, h)
						if err != nil {
							t.Errorf("writer %d: %v", wtr, err)
							return
						}
						if status == http.StatusAccepted {
							mu.Lock()
							netUsers--
							mu.Unlock()
							break
						}
						if status != http.StatusTooManyRequests {
							t.Errorf("writer %d: depart status %d", wtr, status)
							return
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
			}
		}(wtr)
	}

	stopReaders := make(chan struct{})
	var rg sync.WaitGroup
	paths := []string{"/stats", "/region", "/coverage?point=0.5,0.5,0.5", "/influence/topn?n=3"}
	for rd := 0; rd < 4; rd++ {
		rg.Add(1)
		go func(rd int) {
			defer rg.Done()
			lastEpoch := float64(-1)
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				resp, err := client.Get(ts.URL + paths[rd%len(paths)])
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: status %d", rd, resp.StatusCode)
					resp.Body.Close()
					return
				}
				var out map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("reader %d: decode: %v", rd, err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				epoch, ok := out["epoch"].(float64)
				if !ok {
					t.Errorf("reader %d: response without epoch: %v", rd, out)
					return
				}
				if epoch < lastEpoch {
					t.Errorf("reader %d: epoch went backward: %v after %v", rd, epoch, lastEpoch)
					return
				}
				lastEpoch = epoch
			}
		}(rd)
	}

	wg.Wait()
	close(stopReaders)
	rg.Wait()
	srv.stop()

	if got := mo.NumUsers(); got != netUsers {
		t.Fatalf("final population %d, accepted net %d", got, netUsers)
	}
	es := srv.cur.Load()
	if es.epoch == 0 {
		t.Fatal("no epochs published")
	}
	if want := uint64(writers * (eventsPerWriter + eventsPerWriter/3)); es.applied != want {
		t.Fatalf("applied %d events, want %d", es.applied, want)
	}
	// Post-drain region must equal a from-scratch Monitor fed nothing (the
	// daemon's own Monitor IS the from-scratch state after stop); sanity:
	// stats endpoint still serves and reports zero desyncs and empty queue.
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		QueueLen      int    `json:"queueLen"`
		QueueCap      *int   `json:"queueCap"`
		LastDrainSize *int   `json:"lastDrainSize"`
		Applied       uint64 `json:"applied"`
		CountDesyncs  int64  `json:"countDesyncs"`
		NumUsers      int    `json:"numUsers"`
		RoutedLeaves  *int   `json:"routedLeaves"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.QueueLen != 0 || st.CountDesyncs != 0 || st.NumUsers != netUsers {
		t.Fatalf("final stats: %+v (want empty queue, zero desyncs, %d users)", st, netUsers)
	}
	// Backpressure observability: queue capacity and the last drained burst
	// size must be served (pointers distinguish a missing field from a zero
	// value). Every event applied through a drain, so the last drain is
	// between 1 and the queue capacity, and the routed-maintenance profile
	// must be present for dashboards to derive touched-leaves/event.
	if st.QueueCap == nil || *st.QueueCap != 64 {
		t.Fatalf("stats queueCap = %v, want 64", st.QueueCap)
	}
	if st.LastDrainSize == nil || *st.LastDrainSize < 1 || *st.LastDrainSize > 64 {
		t.Fatalf("stats lastDrainSize = %v, want within [1,64]", st.LastDrainSize)
	}
	if st.RoutedLeaves == nil || *st.RoutedLeaves <= 0 {
		t.Fatalf("stats routedLeaves = %v, want positive after %d applied events", st.RoutedLeaves, st.Applied)
	}
}

// TestMirdSmokeCoalescedEqualsSequential drives the same event stream
// through the daemon (where bursts coalesce into batched passes) and
// through a plain sequential Monitor, then demands byte-identical
// regions.
func TestMirdSmokeCoalescedEqualsSequential(t *testing.T) {
	mo, products := testMonitor(t, 150, 12, 3, 4, 5)
	ref, _ := testMonitor(t, 150, 12, 3, 4, 5)
	srv := newServer(mo, products, 128)
	srv.start()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	client := ts.Client()

	users := mir.SynthUsers(mir.Uniform, 10, 3, 3, 99)
	for i, u := range users {
		status, h, err := postArrival(client, ts.URL, u.Weights, u.K)
		if err != nil || status != http.StatusAccepted {
			t.Fatalf("arrival %d: status %d err %v", i, status, err)
		}
		if rh, err := ref.UserArrived(u); err != nil || rh != h {
			t.Fatalf("arrival %d: daemon handle %d, reference %d (err %v)", i, h, rh, err)
		}
		if i%2 == 1 {
			status, err := deleteUser(client, ts.URL, i/2)
			if err != nil || status != http.StatusAccepted {
				t.Fatalf("depart %d: status %d err %v", i/2, status, err)
			}
			if err := ref.UserDeparted(i / 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.stop()

	want, got := ref.Region(), mo.Region()
	wc, gc := want.Cells(), got.Cells()
	if len(wc) != len(gc) {
		t.Fatalf("daemon region has %d cells, sequential %d", len(gc), len(wc))
	}
	for ci := range wc {
		a, b := wc[ci].Constraints(), gc[ci].Constraints()
		if len(a) != len(b) {
			t.Fatalf("cell %d: %d constraints vs %d", ci, len(b), len(a))
		}
		for j := range a {
			if a[j].T != b[j].T {
				t.Fatalf("cell %d constraint %d: thresholds differ", ci, j)
			}
			for x := range a[j].W {
				if a[j].W[x] != b[j].W[x] {
					t.Fatalf("cell %d constraint %d coord %d differs", ci, j, x)
				}
			}
		}
	}
}

// TestMirdSmokeValidationAndBackpressure pins the ingest status codes:
// 400 on malformed arrivals and on non-finite /coverage points, 413 on an
// oversized arrival body, 404 on unknown or already-queued departures,
// 429 + Retry-After when the queue is full (writer deliberately not
// started), and 503 after shutdown.
func TestMirdSmokeValidationAndBackpressure(t *testing.T) {
	mo, products := testMonitor(t, 100, 8, 3, 4, 4)
	srv := newServer(mo, products, 2) // writer NOT started: queue fills deterministically
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	client := ts.Client()

	if status, _, _ := postArrival(client, ts.URL, []float64{0.5, 0.5}, 3); status != http.StatusBadRequest {
		t.Fatalf("wrong-dimension arrival: status %d", status)
	}
	if status, _, _ := postArrival(client, ts.URL, []float64{0.3, 0.3, 0.4}, 0); status != http.StatusBadRequest {
		t.Fatalf("k=0 arrival: status %d", status)
	}
	if status, _, _ := postArrival(client, ts.URL, []float64{0.8, -0.2, 0.4}, 3); status != http.StatusBadRequest {
		t.Fatalf("negative-weight arrival: status %d", status)
	}
	if status, _, _ := postArrival(client, ts.URL, []float64{0, 0, 0}, 3); status != http.StatusBadRequest {
		t.Fatalf("all-zero-weight arrival: status %d", status)
	}
	if status, _, _ := postArrival(client, ts.URL, []float64{0.3, 0.3, 0.4}, 101); status != http.StatusBadRequest {
		t.Fatalf("k>|P| arrival: status %d", status)
	}
	oversized := `{"weights":[0.3,0.3,0.4],"k":3,"pad":"` + strings.Repeat("x", maxArriveBody) + `"}`
	resp, err := client.Post(ts.URL+"/users", "application/json", strings.NewReader(oversized))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized arrival: status %d, want 413", resp.StatusCode)
	}
	if status, _ := deleteUser(client, ts.URL, 999); status != http.StatusNotFound {
		t.Fatalf("unknown departure: status %d", status)
	}
	// JSON has no NaN or infinity: a non-finite point is a bad request,
	// not a 200 whose body failed to encode.
	for _, point := range []string{"NaN,NaN,NaN", "Inf,0,0", "0.5,-Inf,0.5"} {
		resp, err := client.Get(ts.URL + "/coverage?point=" + point)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("coverage at %s: status %d, want 400", point, resp.StatusCode)
		}
	}

	// Fill the queue: a queued departure makes its handle immediately
	// invalid for a second DELETE even though nothing has applied yet.
	if status, _ := deleteUser(client, ts.URL, 0); status != http.StatusAccepted {
		t.Fatalf("first departure: status %d", status)
	}
	if status, _ := deleteUser(client, ts.URL, 0); status != http.StatusNotFound {
		t.Fatalf("duplicate queued departure: status %d", status)
	}
	if status, _ := deleteUser(client, ts.URL, 1); status != http.StatusAccepted {
		t.Fatalf("second departure: status %d", status)
	}

	// Queue (cap 2) is now full: backpressure, with a Retry-After hint.
	body, _ := json.Marshal(map[string]any{"weights": []float64{0.3, 0.3, 0.4}, "k": 3})
	resp, err = client.Post(ts.URL+"/users", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	// The hint is derived from the last observed drain duration, clamped
	// to [1, 30] seconds; no pass has run yet, so it must be the floor.
	retryAfter, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("429 Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if retryAfter < 1 || retryAfter > 30 {
		t.Fatalf("429 Retry-After %d outside [1, 30]", retryAfter)
	}
	if retryAfter != 1 {
		t.Fatalf("429 Retry-After %d before any drain, want the 1s floor", retryAfter)
	}

	// Drain-then-shutdown: both queued departures must apply.
	srv.start()
	srv.stop()
	if got := mo.NumUsers(); got != 6 {
		t.Fatalf("population after drain %d, want 6", got)
	}
	if status, _, _ := postArrival(client, ts.URL, []float64{0.3, 0.3, 0.4}, 3); status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown arrival: status %d, want 503", status)
	}
}

// TestMirdSmokeSlowBody: a client that declares a POST /users body and
// trickles it one byte at a time gets a 408 once the body deadline
// passes, instead of holding the handler for as long as it keeps sending.
// Each byte arriving does not extend the deadline. The daemon keeps
// serving: the next arrival, on a new connection, is accepted.
func TestMirdSmokeSlowBody(t *testing.T) {
	mo, products := testMonitor(t, 100, 8, 3, 4, 4)
	srv := newServer(mo, products, 16)
	srv.bodyTimeout = 200 * time.Millisecond
	srv.start()
	defer srv.stop()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /users HTTP/1.1\r\nHost: mird\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// 100 bytes at one per 20 ms would take 2 s; the writer stops when the
	// server hangs up or the test ends.
	stopTrickle := make(chan struct{})
	defer close(stopTrickle)
	go func() {
		body := []byte(`{"weights":` + strings.Repeat(" ", 100))
		for _, b := range body[:100] {
			select {
			case <-stopTrickle:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := conn.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	if err := conn.SetReadDeadline(start.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("trickled body: no response within a second: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("trickled body: status %d, want 408", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("trickled body: 408 after %v, want within a second", elapsed)
	}

	status, handle, err := postArrival(ts.Client(), ts.URL, []float64{0.3, 0.3, 0.4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted || handle < 0 {
		t.Fatalf("arrival after a slow client: status %d handle %d, want 202", status, handle)
	}
}

// TestMirdSmokeWatch subscribes an SSE client and verifies it receives a
// change alert when departures reshape the region, carrying a watched
// product's membership flip when one occurs. Every user departs, so the
// test ends by reading /coverage over an empty population.
func TestMirdSmokeWatch(t *testing.T) {
	mo, products := testMonitor(t, 150, 14, 3, 5, 7)
	srv := newServer(mo, products, 64)
	srv.start()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/watch?product=0&product=1&product=2", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}

	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(events)
	}()
	select {
	case ev := <-events:
		if ev != "hello" {
			t.Fatalf("first SSE event %q, want hello", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no hello event")
	}

	// Shrink the population to nothing: with m fixed at 7 and users
	// leaving, the region must change shape (eventually emptying), firing
	// alerts.
	client := ts.Client()
	for h := 0; h < 14; h++ {
		for {
			status, err := deleteUser(client, ts.URL, h)
			if err != nil {
				t.Fatal(err)
			}
			if status == http.StatusAccepted {
				break
			}
			if status != http.StatusTooManyRequests {
				t.Fatalf("depart %d: status %d", h, status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	gotChange := false
	deadline := time.After(15 * time.Second)
	for !gotChange {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("SSE stream closed without a change event")
			}
			if ev == "change" {
				gotChange = true
			}
		case <-deadline:
			t.Fatal("no change event within deadline")
		}
	}
	cancel() // release the watch handler before stopping
	srv.stop()

	// With no users there is no boundary: the gap is +Inf, which JSON
	// cannot carry, so it is served as null in a well-formed body.
	cov, err := client.Get(ts.URL + "/coverage?point=0.5,0.5,0.5")
	if err != nil {
		t.Fatal(err)
	}
	defer cov.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(cov.Body).Decode(&out); err != nil {
		t.Fatalf("coverage over an empty population: status %d, body does not decode: %v", cov.StatusCode, err)
	}
	if cov.StatusCode != http.StatusOK || out["coverage"] != 0.0 {
		t.Fatalf("coverage over an empty population: status %d, body %v", cov.StatusCode, out)
	}
	if gap, ok := out["boundaryGap"]; !ok || gap != nil {
		t.Fatalf("boundaryGap over an empty population = %v (present %v), want null", gap, ok)
	}
}

// TestRetryAfterHint pins the drain-duration → Retry-After mapping:
// ceiling to whole seconds, clamped to [1, 30].
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},                     // no drain observed yet: the floor
		{10 * time.Millisecond, 1}, // sub-second passes round up to 1
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{4500 * time.Millisecond, 5},
		{29*time.Second + 500*time.Millisecond, 30},
		{45 * time.Second, 30}, // ceiling
		{5 * time.Minute, 30},
	}
	for _, tc := range cases {
		if got := retryAfterHint(tc.d); got != tc.want {
			t.Errorf("retryAfterHint(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestStatsLastDrainSeconds pins that /stats exposes the observed drain
// interval once a pass has run — the same number the 429 hint derives
// from.
func TestStatsLastDrainSeconds(t *testing.T) {
	mo, products := testMonitor(t, 100, 8, 3, 4, 4)
	srv := newServer(mo, products, 8)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	client := ts.Client()

	if status, _ := deleteUser(client, ts.URL, 0); status != http.StatusAccepted {
		t.Fatalf("departure not accepted: %d", status)
	}
	srv.start()
	srv.stop() // drains the queue, so one pass has definitely run

	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	secs, ok := stats["lastDrainSeconds"].(float64)
	if !ok {
		t.Fatalf("stats missing lastDrainSeconds: %v", stats)
	}
	if secs <= 0 || secs > 60 {
		t.Fatalf("lastDrainSeconds %g implausible for a one-event drain", secs)
	}
	if size, _ := stats["lastDrainSize"].(float64); size != 1 {
		t.Fatalf("lastDrainSize %v, want 1", stats["lastDrainSize"])
	}
}
