// Package sim implements the deterministic discrete-event engine that
// drives every FlowValve experiment.
//
// The engine owns a virtual clock (see package clock) and a min-heap of
// timestamped events. An event is a typed record — a Handler, a uint64
// argument, a time and a sequence number — so scheduling one allocates
// nothing; plain closures (Func) remain for cold paths. Events scheduled
// for the same instant fire in the order they were scheduled, which —
// together with the seeded RNG in rng.go — makes every simulation run
// byte-for-byte reproducible.
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

// Handler is a typed event target. Fire runs at the event's scheduled
// virtual time with the argument it was scheduled with, and may schedule
// further events.
//
// A component with per-packet events implements Handler on a pointer
// type (usually a conversion of the component itself, e.g.
// `type txEvent NIC`) and packs the event's identity — a ring index, a
// port number, a sequence — into arg. Scheduling such an event stores a
// pointer and a word in the event record, so the hot path allocates
// nothing; a capturing closure would allocate on every event.
type Handler interface {
	Fire(arg uint64)
}

// Func is an event callback. It runs at its scheduled virtual time and may
// schedule further events. Func implements Handler (ignoring the
// argument), so At and After are Schedule for cold paths and tests.
type Func func()

// Fire implements Handler.
func (f Func) Fire(uint64) { f() }

type event struct {
	at  int64
	seq uint64
	h   Handler
	arg uint64
}

// before orders events on (at, seq): time first, then scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap on (at, seq). It is typed rather than
// driven through container/heap, so a push or pop moves the event by
// value instead of boxing it into an interface — two allocations per
// simulated event otherwise. Both sifts move a hole rather than swapping,
// so each level costs one record copy instead of three.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes the earliest event and returns its time, handler and
// argument. It is Floyd's bottom-up deletion: the hole left at the root
// walks down the smaller-child path to a leaf (one comparison a level),
// and the displaced tail event then sifts up from there — usually not at
// all, since a tail event is rarely early. The vacated tail slot is
// cleared so the heap's spare capacity does not keep finished handlers
// (and everything they reference) alive.
func (h *eventHeap) pop() (int64, Handler, uint64) {
	q := *h
	top := &q[0]
	at, hd, arg := top.at, top.h, top.arg
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && q[r].before(&q[m]) {
				m = r
			}
			q[i] = q[m]
			i = m
		}
		for i > 0 {
			p := (i - 1) / 2
			if !last.before(&q[p]) {
				break
			}
			q[i] = q[p]
			i = p
		}
		q[i] = last
	}
	*h = q
	return at, hd, arg
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

// Schedule arranges for h.Fire(arg) to run at absolute virtual time t.
// Scheduling in the past (before Now) panics: it indicates a logic error
// that would silently corrupt causality if allowed.
func (e *Engine) Schedule(t int64, h Handler, arg uint64) {
	if t < e.clk.Now() {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, h: h, arg: arg})
}

// At schedules fn to run at absolute virtual time t (see Schedule).
func (e *Engine) At(t int64, fn Func) { e.Schedule(t, fn, 0) }

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
	at, h, arg := e.events.pop()
	if fvassert.Enabled && at < e.clk.Now() {
		fvassert.Failf("sim: event scheduled at t=%d fired with clock already at %d: causality violated",
			at, e.clk.Now())
	}
	e.clk.Set(at)
	e.fired++
	h.Fire(arg)
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
