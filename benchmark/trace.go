package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/mpi"
	"repro/internal/solver"
	"repro/internal/target"
)

// span is one call into a layer, recorded from the benchmark's side of the
// call. Spans of one campaign share Campaign; Parent is the index of the span
// that caused this one, -1 for a root.
type span struct {
	Name     string
	Layer    string
	Campaign int
	Parent   int
	Start    time.Duration // since the tracer's epoch
	End      time.Duration
}

// tracer keeps every span in memory until the run ends. It also holds the
// counters the layer wrappers collect, under the same lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	camps int

	launches   []float64 // ms per Launch
	ranks      int
	failedRuns int
	solves     []float64 // µs per SolveIncremental
	preds      int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// root opens a root span (a batch or a whole workload step) and returns a
// function that closes it.
func (t *tracer) root(name, layer string) (id int, end func()) {
	id = t.add(span{Name: name, Layer: layer, Campaign: -1, Parent: -1, Start: t.now()})
	return id, func() {
		now := t.now()
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

// timed records a finished call [start, now) as a child of parent.
func (t *tracer) timed(name, layer string, parent int, start time.Duration) {
	t.add(span{Name: name, Layer: layer, Campaign: -1, Parent: parent, Start: start, End: t.now()})
}

// campaign starts tracing one campaign under the batch span parent.
func (t *tracer) campaign(parent int) *campTrace {
	t.mu.Lock()
	t.camps++
	id := t.camps
	t.mu.Unlock()
	return &campTrace{t: t, id: id, parent: parent, span: -1, iter: -1}
}

// campTrace follows one campaign: a campaign span, and one iteration span per
// engine iteration. An iteration ends at the Trace callback and the next one
// starts there, so calls made between two callbacks (Launch, solves, the
// checkpoint write) are children of the iteration they belong to.
type campTrace struct {
	t      *tracer
	id     int
	parent int
	span   int // campaign span, -1 until the first event
	iter   int // open iteration span, -1 when none
	first  bool
}

// openLocked makes sure the campaign and an open iteration span exist.
func (c *campTrace) openLocked(now time.Duration) {
	t := c.t
	if c.span < 0 {
		t.spans = append(t.spans, span{Name: "campaign", Layer: "core", Campaign: c.id, Parent: c.parent, Start: now})
		c.span = len(t.spans) - 1
		c.first = true
	}
	if c.iter < 0 {
		t.spans = append(t.spans, span{Name: "iteration", Layer: "core", Campaign: c.id, Parent: c.span, Start: now})
		c.iter = len(t.spans) - 1
	}
}

// call records a finished call into a layer as a child of the open
// iteration.
func (c *campTrace) call(name, layer string, start time.Duration) {
	t := c.t
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c.openLocked(start)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Campaign: c.id, Parent: c.iter, Start: start, End: end})
}

// iterDone is the engine's Trace callback: it closes the open iteration and
// opens the next. The first callback also fixes the campaign's start from
// the stat's cumulative Elapsed.
func (c *campTrace) iterDone(it core.IterationStat) {
	t := c.t
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c.openLocked(now)
	if c.first {
		c.first = false
		start := now - it.Elapsed
		if start < t.spans[c.span].Start {
			t.spans[c.span].Start = start
			t.spans[c.iter].Start = start
		}
	}
	t.spans[c.iter].End = now
	t.spans[c.span].End = now
	t.spans = append(t.spans, span{Name: "iteration", Layer: "core", Campaign: c.id, Parent: c.span, Start: now})
	c.iter = len(t.spans) - 1
}

// finish closes the campaign. The trailing iteration span (after the last
// callback) is kept only if calls landed in it — the final checkpoint write.
func (c *campTrace) finish() {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.iter < 0 {
		return
	}
	last := time.Duration(-1)
	for i := c.iter + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == c.iter && t.spans[i].End > last {
			last = t.spans[i].End
		}
	}
	if last < 0 {
		t.spans[c.iter].Name = "" // skipped by layerSelf and writeSpans
		t.spans[c.iter].End = t.spans[c.iter].Start
	} else {
		t.spans[c.iter].End = last
		if last > t.spans[c.span].End {
			t.spans[c.span].End = last
		}
	}
	c.iter = -1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			if !open || v.a > curB {
				if open {
					covered += curB - curA
				}
				curA, curB, open = v.a, v.b, true
			} else if v.b > curB {
				curB = v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.Name == "" {
			continue
		}
		out[s.Layer] += self[i]
	}
	return out
}

// timedBackend wraps the in-process execution backend and times every
// Launch. Its variable space is its own, so it serves fresh campaigns only:
// a resumed campaign must share the engine's space, which NewEngine does not
// expose.
type timedBackend struct {
	inner core.Backend
	c     *campTrace
}

func newTimedBackend(prog *target.Program, c *campTrace) *timedBackend {
	return &timedBackend{inner: core.NewInProcess(prog, conc.NewVarSpace()), c: c}
}

func (b *timedBackend) Launch(s core.LaunchSpec) mpi.RunResult {
	t := b.c.t
	start := t.now()
	r := b.inner.Launch(s)
	b.c.call("Launch", "mpi", start)
	t.mu.Lock()
	t.launches = append(t.launches, durMS(t.now()-start))
	t.ranks += s.NProcs
	if r.Failed() {
		t.failedRuns++
	}
	t.mu.Unlock()
	return r
}

func (b *timedBackend) Close() error { return b.inner.Close() }

// timedSolver wraps a (possibly shared) solver service for one campaign and
// times every SolveIncremental call.
type timedSolver struct {
	inner core.SolverService
	c     *campTrace
}

func (s *timedSolver) SolveIncremental(preds []expr.Pred, prev map[expr.Var]int64, opt solver.Options) (solver.Result, bool) {
	t := s.c.t
	start := t.now()
	r, ok := s.inner.SolveIncremental(preds, prev, opt)
	s.c.call("SolveIncremental", "solver", start)
	t.mu.Lock()
	t.solves = append(t.solves, float64(t.now()-start)/float64(time.Microsecond))
	t.preds += len(preds)
	t.mu.Unlock()
	return r, ok
}

func (s *timedSolver) Stats() solver.Stats { return s.inner.Stats() }
