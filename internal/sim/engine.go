// Package sim implements the deterministic discrete-event engine that
// drives every FlowValve experiment.
//
// The engine owns a virtual clock (see package clock) and a min-heap of
// timestamped events. Events scheduled for the same instant fire in the
// order they were scheduled, which — together with the seeded RNG in
// rng.go — makes every simulation run byte-for-byte reproducible.
//
// The engine is deliberately single-threaded: multi-core behaviour (NP
// micro-engines, host CPU cores) is *modelled* with explicit cycle costs
// and resource availability times rather than with real goroutines, so
// that contention and timing play out identically on every run. Real
// goroutine parallelism is exercised separately by the wall-clock
// benchmarks in the core package.
package sim

import (
	"flowvalve/internal/clock"
	"flowvalve/internal/fvassert"
)

// Func is an event callback. It runs at its scheduled virtual time and may
// schedule further events.
type Func func()

type event struct {
	at  int64
	seq uint64
	fn  Func
}

// eventHeap is a binary min-heap on (at, seq). It is typed rather than
// driven through container/heap, so a push or pop moves the event by
// value instead of boxing it into an interface — two allocations per
// simulated event otherwise.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the earliest event. The vacated tail slot is
// cleared so the heap's spare capacity does not keep finished closures
// (and everything they capture) alive.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return ev
}

// Engine is a deterministic discrete-event simulator.
//
// Engine is not safe for concurrent use; all scheduling must happen from
// event callbacks or from the single driving goroutine.
type Engine struct {
	clk    *clock.Manual
	events eventHeap
	seq    uint64
	fired  uint64
}

// New returns an engine whose clock starts at t=0.
func New() *Engine {
	return &Engine{clk: clock.NewManual(0)}
}

// Clock returns the engine's virtual clock. Components hold this as a
// clock.Clock so the same code runs under wall time.
func (e *Engine) Clock() *clock.Manual { return e.clk }

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.clk.Now() }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (before Now) panics: it indicates a logic error that would silently
// corrupt causality if allowed.
func (e *Engine) At(t int64, fn Func) {
	if t < e.clk.Now() {
		panic("sim: Engine.At schedules event in the past")
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d int64, fn Func) {
	if d < 0 {
		panic("sim: Engine.After with negative delay")
	}
	e.At(e.clk.Now()+d, fn)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was fired (false means the event queue is
// empty).
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	if fvassert.Enabled && ev.at < e.clk.Now() {
		fvassert.Failf("sim: event scheduled at t=%d fired with clock already at %d: causality violated",
			ev.at, e.clk.Now())
	}
	e.clk.Set(ev.at)
	e.fired++
	ev.fn()
	return true
}

// RunUntil fires events until the clock would pass t (exclusive for events
// strictly later than t) or the queue drains, then sets the clock to t.
// Events scheduled exactly at t do fire.
func (e *Engine) RunUntil(t int64) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.clk.Now() {
		e.clk.Set(t)
	}
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.events) }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }
