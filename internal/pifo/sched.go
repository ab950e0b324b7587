package pifo

import (
	"fmt"
	"sync"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/sched/tree"
)

// virtualMTU sizes the Scheduler plane's virtual queue: CapPkts packets
// of one MTU each, in bytes.
const virtualMTU = 1500

// Sched is the label-plane face of a pifo-family backend: a synchronous
// admit/drop decision (dataplane.Scheduler, including ScheduleBatch)
// against a virtual queue drained at the link rate. It is the same
// algorithmic shape as FlowValve's Algorithm 1 — rank the packet, test
// the backend's admission filter, forward or drop — so fvbench drives
// the whole family through the interface it already speaks.
//
// Only admission is modeled on this plane (there is no reordering to
// observe in a synchronous verdict): every backend is the admission
// kernel (bank) charged in bytes, so the exact PIFO and Eiffel are its
// one-band, no-filter case — tail drop — and their ordering behaviour
// lives on the Qdisc plane. SP-PIFO's bound adaptation, AIFO/RIFO's
// rank windows, and fvrank's horizon are the same kernel code as on the
// Qdisc plane.
//
// Sched is safe for concurrent use; decisions serialize on one mutex
// (the global-qdisc-lock model, matching the kernel baselines).
type Sched struct {
	mu sync.Mutex

	clk clock.Clock
	// manualClk/wallClk cache the concrete type behind clk so the
	// per-decision time read dispatches statically (same devirt as
	// core.Scheduler.now).
	manualClk *clock.Manual
	wallClk   *clock.Wall
	pol       Policy
	st        *stage // pol's staged virtual-clock advance
	k         bank

	drainBps float64
	lastNs   int64

	forwarded uint64
	dropped   uint64
}

// NewSched builds the label-plane adapter for cfg.Backend. The policy
// instance must be exclusive to this Sched. If the policy can bind to a
// scheduling tree, bind it before issuing decisions.
func NewSched(clk clock.Clock, cfg Config, pol Policy) (*Sched, error) {
	if clk == nil || pol == nil {
		return nil, fmt.Errorf("pifo: nil clock or policy")
	}
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sched{clk: clk, pol: pol, st: pol.staged(), k: newBank(&cfg, virtualMTU), drainBps: cfg.LinkRateBps, lastNs: clk.Now()}
	switch c := clk.(type) {
	case *clock.Manual:
		s.manualClk = c
	case *clock.Wall:
		s.wallClk = c
	}
	return s, nil
}

// now reads the clock through the concrete fast path probed at
// construction.
//
//fv:hotpath
func (s *Sched) now() int64 {
	if m := s.manualClk; m != nil {
		return m.Now()
	}
	if w := s.wallClk; w != nil {
		return w.Now()
	}
	//fv:boxing-ok out-of-tree Clock implementations take the virtual slow path; both stock clocks devirtualize above
	return s.clk.Now()
}

// Stats returns cumulative forwarded/dropped decision counts.
func (s *Sched) Stats() (forwarded, dropped uint64) {
	s.mu.Lock()
	forwarded, dropped = s.forwarded, s.dropped
	s.mu.Unlock()
	return forwarded, dropped
}

// Schedule implements dataplane.Scheduler.
//
//fv:hotpath
func (s *Sched) Schedule(lbl *tree.Label, size int) dataplane.Decision {
	s.mu.Lock()
	now := s.now()
	s.drainTickLocked(now)
	d := s.decideLocked(lbl, size, now, 1)
	s.mu.Unlock()
	return d
}

// ScheduleBatch implements dataplane.Scheduler: one lock acquisition,
// one clock read, and one virtual-queue drain are amortized over the
// burst; per-request work is rank + admission only. Under a clock that
// does not advance mid-call the decision sequence is identical to
// batch-1 calls — the conformance suite pins that equivalence.
//
//fv:hotpath
func (s *Sched) ScheduleBatch(reqs []dataplane.Request, out []dataplane.Decision) {
	n := len(reqs)
	if n == 0 {
		return
	}
	s.mu.Lock()
	now := s.now()
	s.drainTickLocked(now)
	for i := 0; i < n; i++ {
		out[i] = s.decideLocked(reqs[i].Label, reqs[i].Size, now, n)
	}
	s.mu.Unlock()
}

// decideLocked ranks and admits one packet, committing the policy's
// virtual-clock advance only on admission. Callers hold s.mu.
//
//fv:hotpath
func (s *Sched) decideLocked(lbl *tree.Label, size int, nowNs int64, batched int) dataplane.Decision {
	r := s.pol.LabelRank(lbl, size, nowNs) //fv:boxing-ok the rank policy is the pifo family's pluggable surface, chosen once at construction
	if _, ok := s.k.admit(r, int64(size), nowNs); ok {
		s.st.commit()
		s.forwarded++
		return dataplane.Decision{Verdict: dataplane.Forward, Batched: batched}
	}
	s.dropped++
	return dataplane.Decision{Verdict: dataplane.Drop, Batched: batched}
}

// drainTickLocked advances the virtual queue: the wire drained
// drainBps·dt bits since the last decision. Callers hold s.mu.
//
//fv:hotpath
func (s *Sched) drainTickLocked(nowNs int64) {
	dt := nowNs - s.lastNs
	if dt <= 0 {
		return
	}
	s.lastNs = nowNs
	s.k.drain(int64(s.drainBps * float64(dt) / 8e9))
}

var _ dataplane.Scheduler = (*Sched)(nil)
