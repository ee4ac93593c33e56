package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mir"
	"mir/internal/eventq"
)

// The standing workload: mird over IND products (d=3, k=10) with 40
// resident users drawn from a 50-user clustered session pool (returning
// users, population held within ±2), m=20. The rates and sizes are
// constants of the workload and are never calibrated at run time.
const (
	standingProducts = 2000
	standingD        = 3
	standingK        = 10
	standingPool     = 50
	standingResident = 40
	standingM        = 20
	eventRate        = 20                   // open-loop arrivals and departures per second
	readRate         = 50                   // open-loop /coverage reads per second
	pollEvery        = 4 * time.Millisecond // /stats visibility polls between reads
	warmupEvents     = 60                   // untimed prefix that lets the arrangement settle
	burstEvents      = 48                   // one burst, sent back to back; far below the queue capacity
	bursts           = 3                    // bursts after the open loop, one after another
	daemonStarts     = 15                   // mird starts whose median is setup_s
	queueCap         = 1024                 // mird's default -queue
	visibleWait      = 30 * time.Second     // how long accepted events may take to become visible
)

// step is one scripted population change, in script handles: the initial
// users hold 0..standingResident-1 and each arrival gets the next handle,
// which is what the daemon assigns when it accepts every event.
type step struct {
	arrive bool
	user   int // pool index
	handle int
}

// sessionScript builds a session stream over a finite pool: an arrival
// brings a random offline pool member back (a returning user), a
// departure takes a random online one, and the population stays within ±2
// of nU. The finite pool keeps the arrangement's cutting planes recurrent,
// so the stream measures maintenance, not ever-growing construction.
func sessionScript(rng *rand.Rand, nPool, nU, n int) []step {
	online := make([]int, nU) // pool indices
	handles := make([]int, nU)
	for i := range online {
		online[i], handles[i] = i, i
	}
	var offline []int
	for i := nU; i < nPool; i++ {
		offline = append(offline, i)
	}
	next := nU
	out := make([]step, 0, n)
	for len(out) < n {
		arrive := rng.Intn(2) == 0
		if len(offline) == 0 || len(online) >= nU+2 {
			arrive = false
		} else if len(online) <= nU-2 {
			arrive = true
		}
		if arrive {
			j := rng.Intn(len(offline))
			pi := offline[j]
			offline = append(offline[:j], offline[j+1:]...)
			out = append(out, step{arrive: true, user: pi, handle: next})
			online = append(online, pi)
			handles = append(handles, next)
			next++
			continue
		}
		i := rng.Intn(len(online))
		out = append(out, step{user: online[i], handle: handles[i]})
		offline = append(offline, online[i])
		online = append(online[:i], online[i+1:]...)
		handles = append(handles[:i], handles[i+1:]...)
	}
	return out
}

// standingInput is the generated workload: the catalog, the session pool,
// the script, and the CSV files mird reads.
type standingInput struct {
	products [][]float64
	pool     []mir.User
	kth      []float64 // every pool user's brute-force threshold
	warm     []step
	loop     []step
	burst    []step
	readPts  [][]float64
	dir      string
	csvP     string
	csvU     string
}

func newStandingInput(cfg config) (*standingInput, error) {
	in := &standingInput{
		products: mir.SynthProducts(mir.Independent, standingProducts, standingD, dataSeed),
		pool:     mir.SynthUsers(mir.Clustered, standingPool, standingD, standingK, dataSeed+1),
	}
	in.kth = kthScores(in.products, in.pool)
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	nLoop := int(math.Round(cfg.seconds.Seconds() * eventRate))
	script := sessionScript(rng, standingPool, standingResident, warmupEvents+nLoop+bursts*burstEvents)
	in.warm, in.loop, in.burst = script[:warmupEvents], script[warmupEvents:warmupEvents+nLoop], script[warmupEvents+nLoop:]
	for range int(math.Round(cfg.seconds.Seconds() * readRate)) {
		p := make([]float64, standingD)
		for j := range p {
			p[j] = 0.5 + 0.5*rng.Float64()
		}
		in.readPts = append(in.readPts, p)
	}
	in.dir = filepath.Join(cfg.workDir, fmt.Sprintf("standing-%d", os.Getpid()))
	in.csvP, in.csvU = filepath.Join(in.dir, "products.csv"), filepath.Join(in.dir, "users.csv")
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	if err := mir.SaveProductsCSV(in.csvP, in.products); err != nil {
		return nil, err
	}
	return in, mir.SaveUsersCSV(in.csvU, in.pool[:standingResident])
}

func (in *standingInput) event(s step) mir.MonitorEvent {
	if s.arrive {
		return mir.Arrival(in.pool[s.user])
	}
	return mir.Departure(s.handle)
}

// daemon is one running mird process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait has returned
	log    *os.File
	once   sync.Once
}

// running lists the daemons not yet stopped, so that every exit path can
// stop them.
var running struct {
	sync.Mutex
	set map[*daemon]bool
}

func stopAllDaemons() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freeAddr picks a free loopback port. Another process could take it
// before mird binds it; mird then exits and the run fails.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon starts mird on the generated CSVs and returns once /stats
// answers 200, with the time that took.
func startDaemon(bin string, in *standingInput) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(in.dir, "mird.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-products", in.csvP, "-users", in.csvU,
		"-m", strconv.Itoa(standingM), "-queue", strconv.Itoa(queueCap))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig stops mird if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start mird: %w", err)
	}
	running.Lock()
	if running.set == nil {
		running.set = make(map[*daemon]bool)
	}
	running.set[d] = true
	running.Unlock()
	go func() {
		cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(d.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("mird exited during start-up; see %s", logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > visibleWait {
			d.stop()
			return nil, 0, errors.New("mird not ready after 30 s")
		}
	}
}

// stop asks mird to apply what it accepted and exit, kills it after 10 s,
// and returns its final state. Safe to call more than once.
func (d *daemon) stop() *os.ProcessState {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM) // fails only if mird already exited
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
		running.Lock()
		delete(running.set, d)
		running.Unlock()
	})
	return d.cmd.ProcessState
}

// client talks to mird over exactly one keep-alive connection.
type client struct {
	base string
	c    *http.Client
}

func newClient(base string) client {
	return client{base: base, c: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request and, on a 2xx reply, decodes its JSON body into
// out when out is non-nil.
func (c client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body) // so the connection is reused
	return resp.StatusCode, nil
}

// daemonStats is the part of /stats the benchmark reads.
type daemonStats struct {
	Epoch            uint64  `json:"epoch"`
	Applied          int     `json:"applied"`
	QueueLen         int     `json:"queueLen"`
	LastDrainSize    int     `json:"lastDrainSize"`
	LastDrainSeconds float64 `json:"lastDrainSeconds"`
	CountDesyncs     int64   `json:"countDesyncs"`
}

// ingest sends scripted steps on the write connection and keeps the
// accepted events in daemon order, the order the daemon applies them.
type ingest struct {
	c        client
	pool     []mir.User
	handles  map[int]int // script handle -> daemon handle, for present users
	accepted []mir.MonitorEvent
}

// send sends one step; on acceptance pos is the event's index in the
// daemon's apply order. A departure whose arrival was refused has no
// daemon handle: it is not sent and counts as failed.
func (ig *ingest) send(s step) (pos int, ok bool) {
	if s.arrive {
		u := ig.pool[s.user]
		var reply struct {
			Handle int `json:"handle"`
		}
		st, err := ig.c.do(http.MethodPost, "/users", map[string]any{"weights": u.Weights, "k": u.K}, &reply)
		if !accepted(st, err) {
			return -1, false
		}
		ig.handles[s.handle] = reply.Handle
		ig.accepted = append(ig.accepted, mir.Arrival(u))
		return len(ig.accepted) - 1, true
	}
	h, present := ig.handles[s.handle]
	if !present {
		return -1, false
	}
	st, err := ig.c.do(http.MethodDelete, "/users/"+strconv.Itoa(h), nil, nil)
	if !accepted(st, err) {
		return -1, false
	}
	delete(ig.handles, s.handle)
	ig.accepted = append(ig.accepted, mir.Departure(h))
	return len(ig.accepted) - 1, true
}

// waitApplied polls /stats until the daemon has applied n events and
// returns when the covering reply arrived.
func waitApplied(c client, n int) (time.Time, daemonStats, error) {
	limit := time.Now().Add(visibleWait)
	for {
		var ds daemonStats
		st, err := c.do(http.MethodGet, "/stats", nil, &ds)
		at := time.Now()
		if accepted(st, err) && ds.Applied >= n {
			return at, ds, nil
		}
		if at.After(limit) {
			return at, ds, fmt.Errorf("mird applied %d of %d accepted events in %v", ds.Applied, n, visibleWait)
		}
		time.Sleep(pollEvery)
	}
}

// session is the record of one untraced run against mird.
type session struct {
	tally
	startup []float64 // seconds from start to the first /stats 200, per start
	writes  []sample  // open-loop POST/DELETE
	reads   []sample  // open-loop /coverage
	polls   []poll
	visible []float64 // ms from due time to visible, per accepted open-loop event
	missing int       // accepted open-loop events no poll saw applied
	burstMS []float64 // per burst: ms from its first send until all of it is visible, per event
	final   daemonStats
	rssMB   float64
	cpuS    float64
}

// runSession starts mird, warms it up, runs the open loop with its reads
// and visibility polls, sends the bursts, checks the final region against
// an in-process replay, and stops mird.
func runSession(cfg config, in *standingInput) (*session, error) {
	ses := &session{}
	var d *daemon
	for range daemonStarts {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(cfg.mird, in); err != nil {
			return nil, err
		}
		ses.startup = append(ses.startup, took.Seconds())
	}
	defer d.stop()

	w := &ingest{c: newClient(d.base), pool: in.pool, handles: make(map[int]int)}
	for h := range standingResident {
		w.handles[h] = h
	}
	r := newClient(d.base)
	for _, s := range in.warm {
		_, ok := w.send(s)
		ses.op(ok)
	}
	if _, _, err := waitApplied(r, len(w.accepted)); err != nil {
		return nil, err
	}

	// The open loop: writes on one connection, reads and visibility polls
	// on the other.
	start := time.Now().Add(50 * time.Millisecond)
	pos := make([]int, len(in.loop))
	writesDone := make(chan struct{})
	go func() {
		defer close(writesDone)
		ses.writes = openLoop(start, time.Second/eventRate, len(in.loop), func(i int) bool {
			p, ok := w.send(in.loop[i])
			pos[i] = p
			return ok
		})
	}()
	var err error
	ses.reads, ses.polls, err = readAndPoll(r, start, in.readPts, writesDone, func() int { return len(w.accepted) }, &ses.tally)
	<-writesDone
	if err != nil {
		return nil, err
	}
	for _, s := range ses.writes {
		ses.op(s.ok)
	}
	// The bursts and the final /region read below are checks and extra
	// detail; the memory metric covers start-up, warm-up and the open loop.
	if ses.rssMB, err = peakRSS(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	ses.visible, ses.missing = visibleLatencies(ses.writes, pos, ses.polls)
	ses.check(ses.missing == 0)

	// The bursts: each back to back, then until all of it is visible.
	for b := 0; b < len(in.burst); b += burstEvents {
		burstStart, before := time.Now(), len(w.accepted)
		for _, s := range in.burst[b : b+burstEvents] {
			_, ok := w.send(s)
			ses.op(ok)
		}
		at, _, err := waitApplied(r, len(w.accepted))
		if err != nil {
			return nil, err
		}
		ses.burstMS = append(ses.burstMS, ratio(ms(at.Sub(burstStart)), float64(len(w.accepted)-before)))
	}

	st, err := r.do(http.MethodGet, "/stats", nil, &ses.final)
	ses.check(accepted(st, err) && ses.final.CountDesyncs == 0)
	var reg regionReply
	st, err = r.do(http.MethodGet, "/region", nil, &reg)
	match, rerr := replayMatches(in, w.accepted, reg, rand.New(rand.NewSource(cfg.seed+3)))
	if rerr != nil {
		return nil, rerr
	}
	ses.check(accepted(st, err) && match)

	ps := d.stop()
	if ps == nil {
		return nil, errors.New("mird state unavailable after stop")
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("mird rusage unavailable")
	}
	ses.cpuS, _ = usage(ru)
	return ses, nil
}

// peakRSS reads a live process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// coverageReply is the part of /coverage the benchmark checks.
type coverageReply struct {
	Coverage    int     `json:"coverage"`
	InRegion    bool    `json:"inRegion"`
	BoundaryGap float64 `json:"boundaryGap"`
}

// readAndPoll runs the read connection: a /coverage read at each due
// time, at the points pts, and /stats polls every pollEvery in between.
// Reads stop after the last point; polls go on until the writer is done
// and every accepted event is visible. A read fails on a non-200 reply,
// and is wrong when, away from every boundary, its region membership
// disagrees with its coverage. Polls are the benchmark's own probes, not
// operations of the workload: they are not counted in t, and a failed
// poll only leaves a gap in polls.
func readAndPoll(c client, start time.Time, pts [][]float64, writesDone <-chan struct{}, total func() int, t *tally) (cov []sample, polls []poll, err error) {
	every := time.Second / readRate
	var doneAt time.Time
	for {
		now := time.Now()
		next := len(cov)
		if next < len(pts) && !now.Before(start.Add(time.Duration(next)*every)) {
			s := sample{due: start.Add(time.Duration(next) * every), sent: now}
			var reply coverageReply
			st, err := c.do(http.MethodGet, "/coverage?point="+formatPoint(pts[next]), nil, &reply)
			s.done, s.ok = time.Now(), accepted(st, err)
			t.op(s.ok)
			if s.ok && reply.BoundaryGap > minGap {
				t.check(reply.InRegion == (reply.Coverage >= standingM))
			}
			cov = append(cov, s)
			continue
		}
		var ds daemonStats
		st, err := c.do(http.MethodGet, "/stats", nil, &ds)
		at := time.Now()
		if accepted(st, err) {
			polls = append(polls, poll{at: at, daemonStats: ds})
		}
		if next == len(pts) {
			select {
			case <-writesDone:
				if doneAt.IsZero() {
					doneAt = at
				}
				if len(polls) > 0 && polls[len(polls)-1].Applied >= total() {
					return cov, polls, nil
				}
				if at.Sub(doneAt) > visibleWait {
					return cov, polls, fmt.Errorf("accepted events not visible %v after the open loop", visibleWait)
				}
			default:
			}
		}
		wake := at.Add(pollEvery)
		if next < len(pts) {
			if due := start.Add(time.Duration(next) * every); due.Before(wake) {
				wake = due
			}
		}
		time.Sleep(time.Until(wake))
	}
}

func formatPoint(p []float64) string {
	parts := make([]string, len(p))
	for i, x := range p {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// regionReply is mird's /region: cells as H-representations.
type regionReply struct {
	Cells []struct {
		Constraints []struct {
			W []float64 `json:"w"`
			T float64   `json:"t"`
		} `json:"constraints"`
	} `json:"cells"`
}

// contains reports whether p satisfies every constraint of some cell,
// with the library's 1e-9 tolerance.
func (r regionReply) contains(p []float64) bool {
	for _, c := range r.Cells {
		in := true
		for _, h := range c.Constraints {
			if dot(h.W, p)-h.T < -1e-9 {
				in = false
				break
			}
		}
		if in {
			return true
		}
	}
	return false
}

// replayMatches rebuilds the region in process, as a Monitor over the
// initial users that applies the accepted events in daemon order, and
// compares it with the daemon's /region: the cell count, and membership
// of sampled points away from every pool user's boundary, which must also
// equal coverage >= m.
func replayMatches(in *standingInput, events []mir.MonitorEvent, reg regionReply, rng *rand.Rand) (bool, error) {
	mon, err := mir.NewMonitor(in.products, in.pool[:standingResident], standingM)
	if err != nil {
		return false, fmt.Errorf("replay: %w", err)
	}
	if _, err := mon.ApplyEvents(events); err != nil {
		return false, fmt.Errorf("replay: %w", err)
	}
	want := mon.Region()
	if want.NumCells() != len(reg.Cells) {
		return false, nil
	}
	for _, c := range drawCheckPoints(rng, standingD, 500, in.pool, in.kth) {
		inside := mon.Coverage(c.p) >= standingM
		if reg.contains(c.p) != inside || want.Contains(c.p) != inside {
			return false, nil
		}
	}
	return true, nil
}

// runStanding is the standing workload.
func runStanding(cfg config) (*report, error) {
	in, err := newStandingInput(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)
	ses, err := runSession(cfg, in)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceStanding(cfg, in, ses)
	}
	rep := newReport()
	rep.tally = ses.tally
	rep.timing("setup_s", "mird_ready_s", ses.startup)
	rep.timing("op_main_ms", "visible_ms", ses.visible)
	rep.timing("op_second_ms", "read_ms", latencies(ses.reads))
	// The visibility tail, not the ingest median: a POST or DELETE reply
	// races the maintenance pass it starts, so the ingest median flips
	// between two modes from run to run.
	rep.tailMetric("op_third_ms", ses.visible)
	rep.summary("ingest_ms", latencies(ses.writes))
	rep.summary("burst_ms_per_event", ses.burstMS)
	rep.set("peak_rss_mb", ses.rssMB)
	rep.measured, rep.cpuS = "mird", ses.cpuS
	q, _ := tail(concat(lags(ses.writes), lags(ses.reads)))
	rep.detail["gen_lag_ms"] = q
	rep.detail["final_queue_len"] = ses.final.QueueLen
	rep.detail["offered_events_per_s"] = eventRate
	rep.detail["reads_per_s"] = readRate
	return rep, nil
}

// traceStanding feeds the same schedule through the library layers mird
// composes, eventq.Queue -> Monitor.ApplyEvents -> Monitor.Snapshot, with
// Snapshot.Coverage reads beside them, and records a span around each
// call. Each event is a root span from its due time to the publication of
// the snapshot that holds it. The untraced session ses supplies the
// daemon-side metrics.
func traceStanding(cfg config, in *standingInput, ses *session) (*report, error) {
	rep := newReport()
	rep.tally = ses.tally
	mon, err := mir.NewMonitor(in.products, in.pool[:standingResident], standingM)
	if err != nil {
		return nil, err
	}
	warm := make([]mir.MonitorEvent, len(in.warm))
	for i, s := range in.warm {
		warm[i] = in.event(s)
	}
	if _, err := mon.ApplyEvents(warm); err != nil {
		return nil, err
	}

	type queued struct {
		ev mir.MonitorEvent
		i  int
	}
	type pass struct {
		drained, applied, published time.Time
	}
	q := eventq.New[queued](queueCap)
	var cur atomic.Pointer[mir.Snapshot]
	cur.Store(mon.Snapshot())
	before := cur.Load().Region().Stats()
	n := len(in.loop)
	enqueued := make([]time.Time, n)
	inPass := make([]int, n)
	var passes []pass
	consumed := make(chan error, 1)
	go func() {
		var buf []queued
		for {
			var more bool
			buf, more = q.Drain(buf[:0])
			if len(buf) > 0 {
				p := pass{drained: time.Now()}
				evs := make([]mir.MonitorEvent, len(buf))
				for j, x := range buf {
					evs[j], inPass[x.i] = x.ev, len(passes)
				}
				if _, err := mon.ApplyEvents(evs); err != nil {
					q.Close()
					consumed <- err
					return
				}
				p.applied = time.Now()
				cur.Store(mon.Snapshot())
				p.published = time.Now()
				passes = append(passes, p)
			}
			if !more {
				consumed <- nil
				return
			}
		}
	}()

	start := time.Now().Add(50 * time.Millisecond)
	readSpans := make(chan [][2]time.Time, 1)
	go func() {
		var out [][2]time.Time
		for j, p := range in.readPts {
			time.Sleep(time.Until(start.Add(time.Duration(j) * time.Second / readRate)))
			s := cur.Load()
			t0 := time.Now()
			s.Coverage(p)
			out = append(out, [2]time.Time{t0, time.Now()})
		}
		readSpans <- out
	}()
	depthMax := 0
	gen := openLoop(start, time.Second/eventRate, n, func(i int) bool {
		err := q.Enqueue(queued{ev: in.event(in.loop[i]), i: i})
		enqueued[i] = time.Now()
		depthMax = max(depthMax, q.Len())
		return err == nil
	})
	q.Close()
	if err := <-consumed; err != nil {
		return nil, fmt.Errorf("ApplyEvents: %w", err)
	}
	reads := <-readSpans
	end := time.Now()
	for _, s := range gen {
		rep.op(s.ok)
		if !s.ok {
			return nil, errors.New("in-process queue refused an event")
		}
	}

	tr := &tracer{}
	var waits []float64
	for i, s := range gen {
		p := passes[inPass[i]]
		id := tr.add("event", 0, s.due, p.published)
		tr.add("eventq.Enqueue", id, s.sent, enqueued[i])
		tr.add("eventq.wait", id, enqueued[i], p.drained)
		tr.add("Monitor.ApplyEvents", id, p.drained, p.applied)
		tr.add("Monitor.Snapshot", id, p.applied, p.published)
		waits = append(waits, ms(p.drained.Sub(enqueued[i])))
	}
	var applies, snaps []float64
	for _, p := range passes {
		applies = append(applies, ms(p.applied.Sub(p.drained)))
		snaps = append(snaps, ms(p.published.Sub(p.applied)))
	}
	var coverageUS []float64
	for _, r := range reads {
		tr.add("Snapshot.Coverage", 0, r[0], r[1])
		coverageUS = append(coverageUS, r[1].Sub(r[0]).Seconds()*1e6)
	}

	last := cur.Load().Region()
	after := last.Stats()
	perEvent := func(a, b int) float64 { return float64(a-b) / float64(n) }
	rep.set("maint.apply_p50_ms", median(applies))
	rep.tailMetric("maint.apply_tail_ms", applies)
	rep.set("maint.events_per_pass", float64(n)/float64(len(passes)))
	rep.set("maint.routed_leaves_per_event", perEvent(after.RoutedLeaves, before.RoutedLeaves))
	rep.set("maint.skipped_subtrees_per_event", perEvent(after.SkippedSubtrees, before.SkippedSubtrees))
	rep.set("maint.frontier_per_event", perEvent(after.TouchedFrontier, before.TouchedFrontier))
	rep.set("maint.snapshot_p50_ms", median(snaps))
	rep.set("maint.cells", float64(last.NumCells()))
	rep.set("maint.count_desyncs", float64(after.CountDesyncs))
	rep.check(after.CountDesyncs == 0)
	rep.set("eventq.wait_p50_ms", median(waits))
	rep.tailMetric("eventq.wait_tail_ms", waits)
	rep.set("eventq.depth_max", float64(depthMax))
	sizes, secs := drains(ses.polls)
	rep.set("mird.drain_size_mean", mean(sizes))
	rep.set("mird.drain_s_p50", median(secs))
	rep.set("snap.coverage_us", median(coverageUS))
	rep.set("mird.http_residual_ms", median(ses.visible)-(median(waits)+median(applies)+median(snaps)))
	rep.tailMetric("gen.lag_tail_ms", concat(lags(ses.writes), lags(ses.reads)))
	rep.zero(topkLayer, aaLayer)
	finishTrace(rep, tr, "event", end.Sub(start))
	rep.detail["passes"] = len(passes)
	rep.measured, rep.cpuS = "mird", ses.cpuS
	return rep, nil
}

// drains samples the daemon's last-drain fields from the polls, once per
// epoch seen.
func drains(polls []poll) (sizes, secs []float64) {
	var last uint64
	for _, p := range polls {
		if p.Epoch != last && p.LastDrainSize > 0 {
			sizes = append(sizes, float64(p.LastDrainSize))
			secs = append(secs, p.LastDrainSeconds)
		}
		last = p.Epoch
	}
	return sizes, secs
}
