package core

import (
	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvassert"
	"flowvalve/internal/sched/tree"
)

// Verdict, Decision and the verdict constants are the dataplane types:
// core is one implementation of dataplane.Scheduler, and every consumer
// (NIC model, facade, harnesses) speaks the interface vocabulary. The
// aliases keep the historical core.Forward / core.Decision spellings
// valid at zero cost.
type (
	// Verdict is the forwarding decision of the scheduling function.
	Verdict = dataplane.Verdict
	// Decision reports the outcome of scheduling one packet.
	Decision = dataplane.Decision
	// Request is one packet's input to ScheduleBatch.
	Request = dataplane.Request
)

const (
	// Forward admits the packet to the transmit buffer.
	Forward = dataplane.Forward
	// Drop discards the packet — the specialized tail drop.
	Drop = dataplane.Drop
)

// Scheduler implements the unified backend-scheduler interface.
var _ dataplane.Scheduler = (*Scheduler)(nil)

// Schedule runs the scheduling function (Algorithm 1) for one packet of
// `size` bytes carrying QoS label lbl, and returns the forwarding
// decision. It is ScheduleBatch on a burst of one: the burst kernel
// (scheduleBatchOwner) is the only implementation of Algorithm 1. It is
// safe to call from any number of goroutines.
//
//fv:hotpath
func (s *Scheduler) Schedule(lbl *tree.Label, size int) Decision {
	req := [1]Request{{Label: lbl, Size: size}}
	var out [1]Decision
	s.ScheduleBatch(req[:], out[:])
	return out[0]
}

// labelPathContains reports whether c is on the label's hierarchy path.
// Paths are at most a handful of classes, so a linear scan beats any
// precomputed set.
func labelPathContains(lbl *tree.Label, c *tree.Class) bool {
	for _, pc := range lbl.Path {
		if pc == c {
			return true
		}
	}
	return false
}

// maybeUpdate runs the update subprocedure for one class under the
// configured locking strategy, accumulating decision telemetry. flt is
// the caller's one fault-state load for the whole call (nil when
// fault-free); injected faults act only on due epochs, so an inactive
// or class-filtered window costs the hot path nothing but the check.
func (s *Scheduler) maybeUpdate(c *tree.Class, st *classState, now int64, d *Decision, flt *schedFaults) {
	if flt != nil {
		dt := now - st.lastUpdate.Load()
		if dt >= s.cfg.UpdateIntervalNs {
			if flt.gate(c.ID, now, dt, s.cfg.UpdateIntervalNs) {
				return
			}
			if s.cfg.Lock == PerClassTryLock && flt.missLock(c.ID, now) {
				d.LockMisses++
				return
			}
		}
	}
	if s.cfg.Lock == GlobalLock {
		// The naive-port ablation of Fig 7-(b) funnels every packet's
		// epoch check through the one blocking lock.
		s.globalMu.Lock()
		//fv:coldpath epoch roll: runs once per UpdateIntervalNs per class, amortized off the per-packet path
		if s.update(c, st, now, true) {
			d.Updates++
		}
		s.globalMu.Unlock()
		return
	}
	// Pre-lock epoch check: a class whose epoch is not due has nothing
	// for the lock to guard, so the common packet skips the
	// TryLock/Unlock pair, and a miss is counted only when an update was
	// due.
	if now-st.lastUpdate.Load() < s.cfg.UpdateIntervalNs {
		return
	}
	switch {
	case st.mu.TryLock():
		//fv:coldpath epoch roll: runs once per UpdateIntervalNs per class, amortized off the per-packet path
		if s.update(c, st, now, true) {
			d.Updates++
		}
		st.mu.Unlock()
	case s.cfg.Lock == NoLock:
		// Ablation: races between epochs permitted — a contended
		// update runs anyway, only without the lock-guarded scratch.
		//fv:racy-ok NoLock mode exists to measure exactly this race; see DESIGN.md locking ablations
		if s.update(c, st, now, false) { //fv:coldpath epoch roll: runs once per UpdateIntervalNs per class, amortized off the per-packet path
			d.Updates++
		}
	default:
		d.LockMisses++
	}
}

// update runs the update subprocedure for class c if its epoch has
// elapsed, returning whether an update executed. locked reports that the
// caller holds st.mu (or the global lock). Only the NoLock ablation
// calls it unlocked — when another core holds the class lock — and then
// its epoch arithmetic deliberately races; the one thing that differs is
// that ChildRates computes into a fresh slice instead of the
// lock-guarded scratch, so the ablation races epochs, never the scratch.
func (s *Scheduler) update(c *tree.Class, st *classState, now int64, locked bool) bool {
	last := st.lastUpdate.Load()
	dt := now - last
	if dt < s.cfg.UpdateIntervalNs {
		return false
	}
	st.lastUpdate.Store(now)

	// Telemetry: time the executed epoch roll on the scheduler's own
	// clock. Under a wall-backed clock this is the real compute cost of
	// the update subprocedure — the quantity the NP cycle budget cares
	// about; under the DES Manual clock it is identically zero, keeping
	// seeded runs bit-identical even with latency sampling attached.
	// Only paid when a histogram is attached.
	var t0 int64
	h := s.tel.Load()
	if h != nil && h.updateDur != nil {
		t0 = s.clk.Now()
	}

	// Subprocedure 3: expired-status removal. A long-idle class
	// restarts from its initial state rather than replaying the idle
	// gap as a giant refill. The lend ledger resets with it: a stale
	// lentEpoch would subtract pre-idle lent bytes from the first fresh
	// epoch's consumption, and a stale negative lendCarry would mute an
	// interior class's lending with phantom pre-idle debt.
	if dt > s.cfg.ExpireAfterNs {
		st.est.Reset()
		st.bucket.Reset(s.burstFor(st.theta.Load(), s.cfg.BurstNs))
		st.shadow.Reset(0)
		st.lendRate.Store(0)
		st.lentEpoch.Store(0)
		st.lendCarry.Store(0)
		dt = s.cfg.UpdateIntervalNs // charge one nominal epoch
	}

	if fvassert.Enabled && dt <= 0 {
		fvassert.Failf("core: class %d epoch rolled with non-positive dt %d (now %d, last %d): clock not monotone",
			c.ID, dt, now, last)
	}

	theta := st.theta.Load()

	// Roll the Γ estimator over the epoch. Γ includes bytes lent from
	// the shadow bucket (they consume this class's reservation), but
	// the shadow refill below must exclude them — the shadow was
	// already drained by the borrowers.
	consumed, _ := st.est.Roll(dt)
	gamma := st.est.Rate()
	lent := st.lentEpoch.Swap(0)
	own := consumed - lent
	if own < 0 {
		own = 0
	}

	// Refill the class bucket: supplement = θ·ΔT (the paper's update
	// stage), with the burst re-sized to the current θ.
	supplement := int64(theta * float64(dt) / 1e9)
	st.bucket.SetBurst(s.burstFor(theta, s.cfg.BurstNs))
	absorbed := st.bucket.Refill(supplement)
	if fvassert.Enabled && (absorbed < 0 || absorbed > supplement) {
		fvassert.Failf("core: class %d epoch minted θ·ΔT=%d but the bucket absorbed %d: conservation violated",
			c.ID, supplement, absorbed)
	}

	// Sharded mode: the root is the one class whose state is split
	// across every shard (each replica sees only its shard's traffic),
	// so root-level decisions that need the *global* Γ — lendable
	// minting and child-rate recomputation — are made by the shard
	// reconciler at settlement, not by any single replica. A replica
	// deciding from its local Γ would see the other shards' children as
	// idle and over-grant its own.
	if s.shard != nil && c.Parent == nil {
		st.updates.Add(1)
		if h != nil && h.updateDur != nil {
			h.updateDur.Observe(float64(s.clk.Now() - t0))
		}
		return true
	}

	// Shadow bucket (subprocedure 2): publish this epoch's unconsumed
	// tokens for eligible borrowers. For a leaf, "unconsumed" is
	// whatever its (metered) bucket could not absorb — routing the
	// overflow, never minting twice. Interior buckets are measuring
	// devices that are never consumed from, so their unconsumed share
	// is computed from the counted consumption instead.
	lendable := tree.Lendable(theta, gamma)
	st.lendRate.Store(lendable)
	st.shadow.SetBurst(s.burstFor(theta, s.cfg.ShadowBurstNs))
	unused := supplement - absorbed
	if !c.Leaf() {
		unused = s.interiorUnused(st, supplement, own, theta)
	}
	if unused > 0 {
		st.shadow.Refill(unused)
	}

	// Recompute the children's token rates from the condition templates
	// (priority residual / weights / guarantees / ceilings).
	if len(c.Children) > 0 {
		var scratch []float64
		if locked {
			scratch = st.rateScratch
		}
		rates := tree.ChildRates(c, theta, s.gammaFuncAt(now), scratch)
		if locked {
			st.rateScratch = rates
		}
		for i, ch := range c.Children {
			s.states[ch.ID].theta.Store(rates[i])
		}
	}
	st.updates.Add(1)
	if h != nil && h.updateDur != nil {
		h.updateDur.Observe(float64(s.clk.Now() - t0))
	}
	return true
}

// interiorUnused maintains the interior-class lend ledger: each epoch
// contributes (supplement − counted consumption), which can be negative
// when the subtree burns banked burst tokens above the rate. Lendable
// tokens are released only while the ledger is positive, so dip tokens a
// child later reclaims from its own bucket are never also lent out —
// that asymmetry would rectify the TCP sawtooth into sustained ceiling
// overshoot. The debt is bounded by one bucket burst so a measurement
// anomaly cannot mute lending forever.
func (s *Scheduler) interiorUnused(st *classState, supplement, own int64, theta float64) int64 {
	carry := st.lendCarry.Load() + supplement - own
	if debtCap := -s.burstFor(theta, s.cfg.BurstNs); carry < debtCap {
		carry = debtCap
	}
	if carry > 0 {
		st.lendCarry.Store(0)
		return carry
	}
	st.lendCarry.Store(carry)
	return 0
}

// gammaFuncAt returns a tree.GammaFunc that reads each class's estimator,
// treating classes idle past the expiry threshold as zero-rate (the
// reader-side half of expired-status removal).
func (s *Scheduler) gammaFuncAt(now int64) tree.GammaFunc {
	return func(c *tree.Class) float64 {
		return s.effectiveGammaAt(c, now)
	}
}

func (s *Scheduler) effectiveGammaAt(c *tree.Class, now int64) float64 {
	st := &s.states[c.ID]
	if now-st.lastSeen.Load() > s.cfg.ExpireAfterNs {
		return 0
	}
	return st.est.Rate()
}

// ForceUpdate runs the update subprocedure for every class immediately,
// regardless of epoch elapse. Tests and the DES warm-up use it to bring
// the tree to a consistent state at a known instant.
func (s *Scheduler) ForceUpdate() {
	now := s.clk.Now()
	for _, c := range s.tree.Classes() {
		st := &s.states[c.ID]
		st.mu.Lock()
		// Rewind lastUpdate just enough to satisfy the epoch check.
		st.lastUpdate.Store(now - s.cfg.UpdateIntervalNs)
		s.update(c, st, now, true)
		st.mu.Unlock()
	}
}
