package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read from fewer samples is a few outliers, not a
// percentile.
const minBeyond = 10

// tailLadder lists, in per mille and highest first, the percentiles tail
// tries.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// pct is one percentile read from a sample set, with the sample count and
// how many samples lie above it.
type pct struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank percentile of xs at perMille/1000
// and whether at least minBeyond samples lie above its rank. The rank is
// computed in integers so that, say, p95 of 200 samples is rank 190 and
// not 191 through float rounding.
func percentile(xs []float64, perMille int) (pct, bool) {
	n := len(xs)
	q := pct{P: float64(perMille) / 10, N: n}
	if n == 0 {
		return q, false
	}
	s := sortedCopy(xs)
	rank := (perMille*n + 999) / 1000 // ceil(perMille*n/1000), 1-based
	rank = max(rank, 1)
	q.Value, q.Beyond = s[rank-1], n-rank
	return q, q.Beyond >= minBeyond
}

// tail returns the highest ladder percentile with at least minBeyond
// samples above it. ok is false when not even the median has them; the
// median is returned then.
func tail(xs []float64) (pct, bool) {
	for _, pm := range tailLadder {
		if q, ok := percentile(xs, pm); ok {
			return q, true
		}
	}
	q, _ := percentile(xs, 500)
	return q, false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// tally counts operations against failures. A failed, refused or
// wrong-output operation is one failure; wrong outputs are also counted on
// their own, because they make a run incorrect where a refusal does not.
type tally struct {
	attempted, failed, wrong int
}

// op records an operation that either succeeded or was refused or failed.
func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// check records an output check; a failed check is a failed operation.
func (t *tally) check(ok bool) {
	t.op(ok)
	if !ok {
		t.wrong++
	}
}

// failedFrac is failed over attempted operations.
func (t tally) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// accepted reports whether a reply means the daemon did what was asked:
// a 2xx status. A 429 (backpressure), any other status, and a transport
// error are failures, and the open loop never retries them.
func accepted(status int, err error) bool {
	return err == nil && status >= 200 && status < 300
}

// sample is one open-loop request: when it was due, when the generator
// actually sent it, when its reply arrived, and whether it succeeded.
type sample struct {
	due, sent, done time.Time
	ok              bool
}

// latency is measured from the due time, so a stall that holds back later
// sends is charged to those requests as well.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// openLoop issues n requests due at start, start+every, ..., calling do
// for each in order on the calling goroutine. It sends on the schedule
// whatever the replies: it never skips or retries a request, and when do
// stalls, the requests behind it go out late and their latency, measured
// from the due time, includes the stall.
func openLoop(start time.Time, every time.Duration, n int, do func(i int) bool) []sample {
	out := make([]sample, n)
	for i := range out {
		due := start.Add(time.Duration(i) * every)
		time.Sleep(time.Until(due))
		s := sample{due: due, sent: time.Now()}
		s.ok = do(i)
		s.done = time.Now()
		out[i] = s
	}
	return out
}

// latencies returns the due-time latencies, in ms, of the successful
// samples.
func latencies(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// lags returns every sample's generator lag in ms.
func lags(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lag())
	}
	return out
}

// poll is one /stats reading: when the reply arrived and what it said.
type poll struct {
	at time.Time
	daemonStats
}

// visibleLatencies returns, for each successful write, the time in ms from
// its due time to the arrival of the first poll whose applied count covers
// the write's position pos[i] in the daemon's FIFO apply order (applied >
// pos[i]). polls must be in arrival order, so applied never decreases.
// missing counts successful writes that no poll covered.
func visibleLatencies(writes []sample, pos []int, polls []poll) (out []float64, missing int) {
	for i, w := range writes {
		if !w.ok {
			continue
		}
		j := sort.Search(len(polls), func(j int) bool { return polls[j].Applied > pos[i] })
		if j == len(polls) {
			missing++
			continue
		}
		out = append(out, ms(polls[j].at.Sub(w.due)))
	}
	return out, missing
}
