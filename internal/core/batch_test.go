package core

import (
	"fmt"
	"testing"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/sched/tree"
)

// batchWorkload is one deterministic packet sequence over the fair tree:
// a mixed-size, mixed-class arrival pattern with time advancing so epoch
// rolls, borrowing, and expiry all occur.
type batchReq struct {
	atNs int64
	app  int
	size int
}

func batchWorkload(n int) []batchReq {
	reqs := make([]batchReq, n)
	now := int64(0)
	for i := range reqs {
		// Deterministic pseudo-pattern: app skews toward 0 so borrowing
		// triggers (app0 overdrives its share, others lend), sizes mix
		// small and MTU, and time advances unevenly across epochs.
		app := (i * 7 % 10) % 4
		if i%3 == 0 {
			app = 0
		}
		size := 1500
		if i%5 == 0 {
			size = 96
		}
		now += int64(2_000 + (i%13)*1_700) // 2–22µs between packets
		reqs[i] = batchReq{atNs: now, app: app, size: size}
	}
	return reqs
}

func newBatchPair(t *testing.T) (*Scheduler, *Scheduler, *clock.Manual, *clock.Manual, []*tree.Label, []*tree.Label) {
	t.Helper()
	mk := func() (*Scheduler, *clock.Manual, []*tree.Label) {
		tr := fairTree(4e9)
		clk := clock.NewManual(0)
		s, err := New(tr, clk, Config{})
		if err != nil {
			t.Fatal(err)
		}
		lbls := make([]*tree.Label, 4)
		for i := range lbls {
			lbl, ok := tr.LabelByName(fmt.Sprintf("app%d", i))
			if !ok {
				t.Fatalf("no label app%d", i)
			}
			lbls[i] = lbl
		}
		return s, clk, lbls
	}
	s1, c1, l1 := mk()
	s2, c2, l2 := mk()
	return s1, s2, c1, c2, l1, l2
}

// refSchedule is a test-only transcription of Algorithm 1 for one
// packet, written straight from the paper's per-packet pseudocode: no
// batching, no deferred counting, fault-free, telemetry off, unsharded.
// It drives the scheduler's own state and update subprocedure, so the
// burst kernel can be checked against the algorithm rather than against
// itself.
func refSchedule(s *Scheduler, lbl *tree.Label, size int) Decision {
	now := s.clk.Now()
	sz := int64(size)
	d := Decision{Batched: 1}
	update := func(c *tree.Class) {
		st := &s.states[c.ID]
		if now-st.lastUpdate.Load() < s.cfg.UpdateIntervalNs {
			return
		}
		if !st.mu.TryLock() {
			d.LockMisses++
			return
		}
		if s.update(c, st, now, true) {
			d.Updates++
		}
		st.mu.Unlock()
	}
	lst := &s.states[lbl.Leaf.ID]
	forward := func() Decision {
		for _, c := range lbl.Path {
			s.states[c.ID].est.Count(sz)
		}
		lst.fwdPkts.Add(1)
		lst.fwdBytes.Add(sz)
		if d.Marked {
			lst.markPkts.Add(1)
		}
		d.Verdict = Forward
		return d
	}

	// Lines 1–5: stamp and opportunistically update the path.
	for _, c := range lbl.Path {
		s.states[c.ID].lastSeen.Store(now)
		update(c)
	}
	// Lines 6–8: meter at the leaf.
	if lst.bucket.TryConsume(sz) {
		f := s.cfg.ECNMarkFrac
		d.Marked = f > 0 && lst.bucket.Tokens() < int64(f*float64(lst.bucket.Burst()))
		return forward()
	}
	// Lines 9–15: borrow from the first lender whose shadow admits it.
	for _, lender := range lbl.Borrow {
		ls := &s.states[lender.ID]
		update(lender)
		if !ls.shadow.TryConsume(sz) {
			continue
		}
		ls.lentBytes.Add(sz)
		ls.lentEpoch.Add(sz)
		ls.lastSeen.Store(now)
		if !labelPathContains(lbl, lender) {
			ls.est.Count(sz)
		}
		lst.borrowPkts.Add(1)
		d.Borrowed, d.Lender = true, lender
		d.Marked = s.cfg.ECNMarkFrac > 0
		return forward()
	}
	// Line 16: drop.
	lst.dropPkts.Add(1)
	lst.dropBytes.Add(sz)
	d.Verdict = Drop
	return d
}

// nestedTree is a two-level tree whose leaves borrow from their own
// parent (a lender on the packet's hierarchy path), from a sibling, and
// from the other group — the borrow shapes fairTree does not cover.
func nestedTree(rateBps float64) *tree.Tree {
	return tree.NewBuilder().Root("root", rateBps).
		Add(tree.ClassSpec{Name: "grpA", Parent: "root", Weight: 3}).
		Add(tree.ClassSpec{Name: "grpB", Parent: "root", Weight: 1}).
		Add(tree.ClassSpec{Name: "app0", Parent: "grpA", BorrowFrom: []string{"grpA", "app2"}}).
		Add(tree.ClassSpec{Name: "app1", Parent: "grpA", BorrowFrom: []string{"app0", "grpA"}}).
		Add(tree.ClassSpec{Name: "app2", Parent: "grpB", BorrowFrom: []string{"grpB", "grpA"}}).
		Add(tree.ClassSpec{Name: "app3", Parent: "grpB", BorrowFrom: []string{"app2"}}).
		MustBuild()
}

// TestScheduleBatchSize1Identical: Schedule — a burst of one through
// the kernel — must be decision-for-decision identical to the
// per-packet transcription of Algorithm 1 (every Decision field), and
// leave identical per-class state behind, with and without the ECN
// extension and on both borrow shapes.
func TestScheduleBatchSize1Identical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(float64) *tree.Tree
	}{{"fair", fairTree}, {"nested", nestedTree}} {
		mk := tc.mk
		for _, ecn := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("%s/ecn=%v", tc.name, ecn), func(t *testing.T) {
				clk := clock.NewManual(0)
				build := func() (*Scheduler, []*tree.Label) {
					tr := mk(4e8)
					s, err := New(tr, clk, Config{ECNMarkFrac: ecn})
					if err != nil {
						t.Fatal(err)
					}
					lbls := make([]*tree.Label, 4)
					for i := range lbls {
						lbls[i], _ = tr.LabelByName(fmt.Sprintf("app%d", i))
					}
					return s, lbls
				}
				ref, lr := build()
				got, lg := build()
				var borrowed, dropped int
				for i, r := range batchWorkload(20_000) {
					clk.Set(r.atNs)
					want := refSchedule(ref, lr[r.app], r.size)
					d := got.Schedule(lg[r.app], r.size)
					if want.Lender != nil {
						if d.Lender == nil || d.Lender.ID != want.Lender.ID {
							t.Fatalf("pkt %d: lender %v, want %v", i, d.Lender, want.Lender)
						}
						want.Lender, d.Lender = nil, nil
					}
					if d != want {
						t.Fatalf("pkt %d (app%d %dB @%dns): Schedule=%+v, Algorithm 1=%+v",
							i, r.app, r.size, r.atNs, d, want)
					}
					if d.Borrowed {
						borrowed++
					}
					if d.Verdict == Drop {
						dropped++
					}
				}
				if borrowed == 0 || dropped == 0 {
					t.Fatalf("workload borrowed %d and dropped %d packets: the comparison misses a branch", borrowed, dropped)
				}
				rs, gs := ref.Snapshot(), got.Snapshot()
				for i := range rs {
					rs[i].Class, gs[i].Class = nil, nil
					if rs[i] != gs[i] {
						t.Fatalf("class %d final stats: Schedule %+v, Algorithm 1 %+v", i, gs[i], rs[i])
					}
				}
			})
		}
	}
}

// TestLockMissOnlyWhenEpochDue: under PerClassTryLock the class lock is
// taken only when the class's epoch is due, so a held lock costs a miss
// only then — an undue class never touches its lock.
func TestLockMissOnlyWhenEpochDue(t *testing.T) {
	tr := fairTree(4e9)
	clk := clock.NewManual(0)
	s, err := New(tr, clk, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lbl, _ := tr.LabelByName("app0")
	st := &s.states[lbl.Leaf.ID]
	st.mu.Lock()
	defer st.mu.Unlock()

	clk.Advance(s.cfg.UpdateIntervalNs / 2)
	if d := s.Schedule(lbl, 64); d.LockMisses != 0 || d.Updates != 0 {
		t.Fatalf("epoch not due: LockMisses=%d Updates=%d, want 0 and 0", d.LockMisses, d.Updates)
	}
	clk.Advance(s.cfg.UpdateIntervalNs)
	if d := s.Schedule(lbl, 64); d.LockMisses != 1 {
		t.Fatalf("epoch due with the leaf lock held: LockMisses=%d, want 1", d.LockMisses)
	}
}

// TestScheduleBatchConformance: at batch sizes 1, 8, and 64 the admitted
// byte totals per class must stay within one epoch's refill (plus an
// MTU) of the per-packet path. The token supply is epoch-driven, not
// call-driven, so batching must not change enforced rates.
func TestScheduleBatchConformance(t *testing.T) {
	for _, bs := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			s1, s2, c1, c2, l1, l2 := newBatchPair(t)
			reqs := batchWorkload(40_000)

			// Reference: per-packet scheduling.
			fwdRef := make(map[int]int64)
			for _, r := range reqs {
				c1.Set(r.atNs)
				if d := s1.Schedule(l1[r.app], r.size); d.Verdict == Forward {
					fwdRef[r.app] += int64(r.size)
				}
			}

			// Batched: group consecutive arrivals into bursts stamped at
			// the burst head's arrival (how an Rx-ring doorbell sees
			// them).
			fwdBatch := make(map[int]int64)
			breqs := make([]dataplane.Request, 0, bs)
			outs := make([]dataplane.Decision, bs)
			apps := make([]int, 0, bs)
			for i := 0; i < len(reqs); i += bs {
				end := min(i+bs, len(reqs))
				burst := reqs[i:end]
				c2.Set(burst[0].atNs)
				breqs, apps = breqs[:0], apps[:0]
				for _, r := range burst {
					breqs = append(breqs, dataplane.Request{Label: l2[r.app], Size: r.size})
					apps = append(apps, r.app)
				}
				s2.ScheduleBatch(breqs, outs[:len(breqs)])
				for j := range breqs {
					if outs[j].Batched != len(breqs) {
						t.Fatalf("burst at %d: Batched=%d want %d", i, outs[j].Batched, len(breqs))
					}
					if outs[j].Verdict == Forward {
						fwdBatch[apps[j]] += int64(breqs[j].Size)
					}
				}
			}

			// Tolerance: one epoch's refill per class at its granted
			// rate, plus one MTU of quantization, plus the arrival-time
			// skew a burst introduces (its tail packets are stamped up
			// to a burst's span earlier than in the reference run).
			cfg := s1.Config()
			burstSpanNs := int64(bs) * 22_000 // max inter-arrival in workload
			for app := 0; app < 4; app++ {
				lbl := l1[app]
				theta := s1.states[lbl.Leaf.ID].theta.Load() // bytes/s
				tol := int64(theta*float64(cfg.UpdateIntervalNs+burstSpanNs)/1e9) + 1500
				diff := fwdBatch[app] - fwdRef[app]
				if diff < 0 {
					diff = -diff
				}
				if diff > tol {
					t.Errorf("app%d admitted bytes diverge: per-packet=%d batched=%d (|Δ|=%d > tol=%d)",
						app, fwdRef[app], fwdBatch[app], diff, tol)
				}
			}
		})
	}
}

// TestScheduleBatchEstimatorFlush: the deferred Γ counting must land in
// the estimators — a batch's forwarded bytes show up in Gamma exactly as
// per-packet counting would.
func TestScheduleBatchEstimatorFlush(t *testing.T) {
	s1, s2, c1, c2, l1, l2 := newBatchPair(t)
	reqs := batchWorkload(10_000)

	for _, r := range reqs {
		c1.Set(r.atNs)
		s1.Schedule(l1[r.app], r.size)
	}
	breqs := make([]dataplane.Request, 0, 8)
	outs := make([]dataplane.Decision, 8)
	for i := 0; i < len(reqs); i += 8 {
		end := min(i+8, len(reqs))
		c2.Set(reqs[i].atNs)
		breqs = breqs[:0]
		for _, r := range reqs[i:end] {
			breqs = append(breqs, dataplane.Request{Label: l2[r.app], Size: r.size})
		}
		s2.ScheduleBatch(breqs, outs[:len(breqs)])
	}

	tr1, tr2 := s1.Tree(), s2.Tree()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("app%d", i)
		c1c, _ := tr1.Lookup(name)
		c2c, _ := tr2.Lookup(name)
		g1, g2 := s1.Gamma(c1c), s2.Gamma(c2c)
		if g1 == 0 && g2 == 0 {
			continue
		}
		ref := g1
		if ref < g2 {
			ref = g2
		}
		if diff := g1 - g2; diff < -0.25*ref || diff > 0.25*ref {
			t.Errorf("class %s: Gamma per-packet=%.0f batched=%.0f (>25%% apart)", name, g1, g2)
		}
	}
}

// TestScheduleBatchConcurrent drives ScheduleBatch from many goroutines
// (run under -race in CI): pooled scratch must never be shared between
// in-flight batches.
func TestScheduleBatchConcurrent(t *testing.T) {
	tr := fairTree(8e9)
	s, err := New(tr, clock.NewWall(), Config{UpdateIntervalNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lbls := make([]*tree.Label, 4)
	for i := range lbls {
		lbls[i], _ = tr.LabelByName(fmt.Sprintf("app%d", i))
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			reqs := make([]dataplane.Request, 16)
			out := make([]dataplane.Decision, 16)
			for i := 0; i < 2_000; i++ {
				for j := range reqs {
					reqs[j] = dataplane.Request{Label: lbls[(g+j)%4], Size: 1500}
				}
				s.ScheduleBatch(reqs, out)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
