package core

import (
	"testing"

	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
)

// Expired-status removal must clear the lend ledger (lentEpoch and
// lendCarry) along with the estimator and buckets. A stale negative
// lendCarry would carry phantom pre-idle lend debt into the first fresh
// epoch and mute an interior class's shadow refill; a stale lentEpoch
// would subtract pre-idle lent bytes from the fresh epoch's consumption.
func TestExpiryClearsLendLedger(t *testing.T) {
	eng := sim.New()
	tr := tree.NewBuilder().
		Root("root", 10e9).
		Add(tree.ClassSpec{Name: "s2", Parent: "root"}).
		Add(tree.ClassSpec{Name: "ws", Parent: "s2"}).
		Add(tree.ClassSpec{Name: "ml", Parent: "s2", BorrowFrom: []string{"s2"}}).
		MustBuild()
	s := newSched(t, eng, tr)
	// Two update rounds propagate θ from the root to s2.
	s.ForceUpdate()
	s.ForceUpdate()

	c, ok := tr.Lookup("s2")
	if !ok {
		t.Fatal("s2 missing")
	}
	st := &s.states[c.ID]
	if st.theta.Load() <= 0 {
		t.Fatalf("s2 theta = %v, want > 0", st.theta.Load())
	}

	// Pre-idle state: the class lent bytes this epoch and its ledger has
	// banked the maximum debt (a subtree that burned burst above rate).
	st.lentEpoch.Store(1 << 20)
	st.lendCarry.Store(-(1 << 40))

	// Idle past the expiry threshold, then run the class's next epoch.
	cfg := s.Config()
	idle := cfg.ExpireAfterNs * 3
	eng.RunUntil(eng.Now() + idle)
	now := s.clk.Now()
	st.mu.Lock()
	ran := s.update(c, st, now, true)
	st.mu.Unlock()
	if !ran {
		t.Fatal("expiry epoch did not execute")
	}

	if got := st.lentEpoch.Load(); got != 0 {
		t.Fatalf("lentEpoch after expiry = %d, want 0", got)
	}
	if got := st.lendCarry.Load(); got != 0 {
		t.Fatalf("lendCarry after expiry = %d, want 0", got)
	}
	// First fresh epoch: Γ restarts from zero...
	if got := st.est.Rate(); got != 0 {
		t.Fatalf("gamma after expiry epoch = %v, want 0", got)
	}
	// ...and the interior class lends again immediately: the fresh
	// epoch's unconsumed supplement reaches the shadow bucket instead of
	// being swallowed by phantom debt.
	if got := st.shadow.Tokens(); got <= 0 {
		t.Fatalf("interior shadow tokens after expiry epoch = %d, want > 0 (lending muted by stale lendCarry)", got)
	}
}

// The NoLock ablation shares subprocedure 3: without it, an idle gap is
// replayed as one giant epoch whose oversized supplement floods the
// shadow bucket with phantom lendable tokens.
func TestExpiryAppliesUnderNoLock(t *testing.T) {
	eng := sim.New()
	tr := tree.NewBuilder().
		Root("root", 10e9).
		Add(tree.ClassSpec{Name: "a", Parent: "root"}).
		MustBuild()
	s, err := New(tr, eng.Clock(), Config{Lock: NoLock})
	if err != nil {
		t.Fatal(err)
	}
	s.ForceUpdate()
	s.ForceUpdate()

	c, _ := tr.Lookup("a")
	st := &s.states[c.ID]
	theta := st.theta.Load()
	if theta <= 0 {
		t.Fatalf("theta = %v, want > 0", theta)
	}
	st.lentEpoch.Store(1 << 20)

	cfg := s.Config()
	idle := cfg.ExpireAfterNs * 20
	eng.RunUntil(eng.Now() + idle)
	if !s.update(c, st, s.clk.Now(), false) {
		t.Fatal("expiry epoch did not execute")
	}

	if got := st.lentEpoch.Load(); got != 0 {
		t.Fatalf("lentEpoch after expiry = %d, want 0", got)
	}
	// One nominal epoch's supplement bounds the fresh shadow level; the
	// old code refilled it with θ·(idle gap) — orders of magnitude more.
	oneEpoch := int64(theta * float64(cfg.UpdateIntervalNs) / 1e9)
	if got := st.shadow.Tokens(); got > oneEpoch {
		t.Fatalf("shadow after expiry = %d tokens, want ≤ one epoch's supplement (%d) — idle gap replayed as refill", got, oneEpoch)
	}
}
