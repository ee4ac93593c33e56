package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, its interval, and the
// id of the span that caused it (0 for a root). Spans are recorded only in
// this benchmark's own files, around each call it makes into a layer.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Time
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span whose interval is already known and returns its id.
// Ids start at 1.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span that starts now; close ends it and returns its
// duration.
func (t *tracer) open(name string, parent int) int {
	return t.add(name, parent, time.Now(), time.Time{})
}

func (t *tracer) close(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Now()
	return s.End.Sub(s.Start)
}

// call runs f inside a span and returns its duration.
func (t *tracer) call(name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

// durations returns the durations, in seconds, of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start).Seconds())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap one another
// (concurrent calls) are merged first, so time covered twice is subtracted
// once, and a child's part outside its parent's interval is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi] the union of the spans' intervals
// covers.
func covered(lo, hi time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	for i := 0; i < len(ivs); {
		cur := ivs[i]
		for i++; i < len(ivs) && !ivs[i].a.After(cur.b); i++ {
			if ivs[i].b.After(cur.b) {
				cur.b = ivs[i].b
			}
		}
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerSelf sums self time, in seconds, by span name.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// benchCheck names the spans around the benchmark's own output checks.
// They are not a layer: unattributed leaves their time out of the roots'
// time altogether, so that the residual is what the layer spans miss in
// the measured work, not the cost of checking it.
const benchCheck = "bench.check"

// unattributed returns the share of the root spans' total time, less the
// time their benchCheck children cover, that no other child covers.
func unattributed(spans []span, root string) float64 {
	self := selfTimes(spans)
	checks := make(map[int][]span)
	for _, s := range spans {
		if s.Name == benchCheck {
			checks[s.Parent] = append(checks[s.Parent], s)
		}
	}
	var wall, un time.Duration
	for _, s := range spans {
		if s.Name == root {
			wall += s.End.Sub(s.Start) - covered(s.Start, s.End, checks[s.ID])
			un += self[s.ID]
		}
	}
	return ratio(un.Seconds(), wall.Seconds())
}

// spanCost measures what recording one span costs: the two clock reads
// and the append that tracing adds around a call. Times the number of
// spans, it is the traced-minus-untraced wall the tracer itself causes.
func spanCost() time.Duration {
	const n = 20000
	var t tracer
	start := time.Now()
	for range n {
		t.call("calibrate", 0, func() {})
	}
	return time.Since(start) / n
}

// finishTrace reports the trace's validity metrics: trace.overhead_frac,
// the tracer's own cost over the traced wall, and unattributed_frac, the
// share of the root spans' time no layer span covers. The detail record
// gets every layer's self time.
func finishTrace(rep *report, tr *tracer, root string, wall time.Duration) {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	rep.set("trace.overhead_frac", ratio(float64(len(spans))*spanCost().Seconds(), wall.Seconds()))
	rep.set("unattributed_frac", unattributed(spans, root))
	rep.detail["spans"] = len(spans)
	rep.detail["self_s"] = layerSelf(spans)
}
