package core

import (
	"flowvalve/internal/dataplane"
	"flowvalve/internal/sched/tree"
)

// batchScratch is the working set of one ScheduleBatch call, pooled on
// the scheduler so steady-state batching allocates nothing. Slices are
// indexed by tree.ClassID.
//
//fv:owner
type batchScratch struct {
	// fwd accumulates forwarded bytes per class (path consumption plus
	// lent bytes counted against off-path lenders), flushed into the Γ
	// estimators as one Count per class at the end of the batch.
	fwd []int64
	// touched lists the classes with pending fwd bytes.
	touched []*tree.Class
	// seen marks (by generation) classes whose epoch-elapse check
	// already ran this batch.
	seen []uint32
	gen  uint32
	// traces queues sampled decisions for batched emission.
	traces []pendingTrace

	// Leaf verdict counters, accumulated here when telemetry is
	// detached (no per-packet sequence numbers needed) and flushed as
	// one atomic add per counter per touched leaf at the end of the
	// batch. cntTouched lists the leaves with pending counts.
	fwdPk      []uint32
	fwdBy      []int64
	dropPk     []uint32
	dropBy     []int64
	cntTouched []*tree.Class
}

// leafFwd counts one forwarded packet of sz bytes against leaf c in
// batch-local scratch (telemetry-detached path).
func (bs *batchScratch) leafFwd(c *tree.Class, sz int64) {
	if bs.fwdPk[c.ID] == 0 && bs.dropPk[c.ID] == 0 {
		bs.cntTouched = append(bs.cntTouched, c)
	}
	bs.fwdPk[c.ID]++
	bs.fwdBy[c.ID] += sz
}

// leafDrop counts one dropped packet of sz bytes against leaf c in
// batch-local scratch (telemetry-detached path).
func (bs *batchScratch) leafDrop(c *tree.Class, sz int64) {
	if bs.fwdPk[c.ID] == 0 && bs.dropPk[c.ID] == 0 {
		bs.cntTouched = append(bs.cntTouched, c)
	}
	bs.dropPk[c.ID]++
	bs.dropBy[c.ID] += sz
}

// pendingTrace is one sampled decision awaiting trace emission.
type pendingTrace struct {
	seq int64
	idx int32
}

func newBatchScratch(classes int) *batchScratch {
	return &batchScratch{
		fwd:     make([]int64, classes),
		touched: make([]*tree.Class, 0, classes),
		seen:    make([]uint32, classes),
		fwdPk:   make([]uint32, classes),
		fwdBy:   make([]int64, classes),
		dropPk:  make([]uint32, classes),
		dropBy:  make([]int64, classes),
	}
}

// nextGen advances the batch generation, clearing the seen markers only
// on the (once per 4G batches) wrap-around.
func (bs *batchScratch) nextGen() uint32 {
	bs.gen++
	if bs.gen == 0 {
		clear(bs.seen)
		bs.gen = 1
	}
	return bs.gen
}

// count defers the Γ consumption count of sz bytes for every class on
// the path until the batch flush.
func (bs *batchScratch) count(path []*tree.Class, sz int64) {
	if sz == 0 {
		return
	}
	for _, c := range path {
		bs.countOne(c, sz)
	}
}

func (bs *batchScratch) countOne(c *tree.Class, sz int64) {
	if bs.fwd[c.ID] == 0 {
		bs.touched = append(bs.touched, c)
	}
	bs.fwd[c.ID] += sz
}

// ScheduleBatch runs the scheduling function for a burst of packets in
// one pass, writing out[i] for reqs[i] (len(out) must be ≥ len(reqs)).
//
// This is the scheduler's only implementation of Algorithm 1 — Schedule
// is a burst of one — with its per-packet overheads amortized across
// the burst, the way the NP's packet contexts share one pipeline pass:
//
//   - one clock read for the whole batch (every packet is stamped with
//     the same arrival instant — exactly what a single DES event or one
//     Rx-ring doorbell delivers);
//   - one epoch-elapse check, and at most one locked update, per class
//     per batch instead of per packet (idempotent within a batch: after
//     the first check the class's epoch cannot elapse again at the same
//     timestamp);
//   - one estimator Count per touched class, accumulated in non-atomic
//     scratch while the batch runs;
//   - trace emission batched after the verdict loop, so the sampled
//     packets cost the unsampled ones nothing.
//
// At larger sizes verdicts can differ transiently from a run of bursts
// of one around an epoch boundary (the update lands on the batch's
// first toucher instead of between packets), but admitted byte totals
// stay within one epoch's refill — the token supply is epoch-driven, not
// call-driven, so batch size does not change enforced rates.
//
// Safe for concurrent use; scratch state is pooled per call, never
// shared between concurrent batches.
//
//fv:hotpath
func (s *Scheduler) ScheduleBatch(reqs []dataplane.Request, out []dataplane.Decision) {
	if len(reqs) == 0 {
		return
	}
	bs := s.batchPool.Get().(*batchScratch)
	//fv:owner-ok scratch drawn from the pool is exclusively held until the Put below
	s.scheduleBatchOwner(reqs, out, bs)
	//fv:owner-ok ownership returns to the pool: this frame holds the only reference and never touches bs after the Put
	s.batchPool.Put(bs)
}

// scheduleBatchOwner is ScheduleBatch against caller-owned scratch. The
// Owner suffix is the single-goroutine-ownership convention: bs must be
// exclusively held by the caller for the duration of the call — the
// pool wrapper above guarantees it per call, and each parallel shard
// worker owns a dedicated scratch outright, so sharded batching never
// bounces scratch through a shared sync.Pool between cores.
//
//fv:hotpath
func (s *Scheduler) scheduleBatchOwner(reqs []dataplane.Request, out []dataplane.Decision, bs *batchScratch) {
	n := len(reqs)
	if n == 0 {
		return
	}
	out = out[:n]
	now := s.now()
	gen := bs.nextGen()
	h := s.tel.Load()
	flt := s.flt.Load()

	for i := range reqs {
		lbl := reqs[i].Label
		sz := int64(reqs[i].Size)
		d := &out[i]
		*d = Decision{Batched: n}

		// Lines 1–5: walk the hierarchy label root→leaf, stamping each
		// class active and refreshing its token bucket opportunistically.
		// Every packet in the batch shares one arrival instant, so both
		// the lastSeen stamp (what keeps an active class from expiring)
		// and the epoch-elapse check run once per class per batch —
		// repeat stores of the same now are pure cache traffic. The
		// packet is counted against every class's consumption estimator
		// only on forward (below), so dropped packets do not inflate Γ —
		// Γ measures *forwarding* consumption (Eq. 3).
		for _, c := range lbl.Path {
			if bs.seen[c.ID] != gen {
				bs.seen[c.ID] = gen
				st := &s.states[c.ID]
				st.lastSeen.Store(now)
				s.maybeUpdate(c, st, now, d, flt)
			}
		}

		leaf := lbl.Leaf
		lst := &s.states[leaf.ID]

		switch {
		case lst.bucket.TryConsume(sz):
			// Lines 6–8: the leaf meter is green. Virtual-queue ECN
			// extension: signal congestion early while the packet is
			// still green.
			if f := s.cfg.ECNMarkFrac; f > 0 &&
				lst.bucket.Tokens() < int64(f*float64(lst.bucket.Burst())) {
				d.Marked = true
			}
		case s.borrow(lbl, sz, now, gen, bs, d, flt):
			// Lines 9–15: a lender's shadow admitted the red packet.
			// Borrowed bandwidth is inherently contended; mark it under
			// the ECN extension so borrowers yield first.
			d.Marked = s.cfg.ECNMarkFrac > 0
			lst.borrowPkts.Add(1)
		default:
			// Line 16: drop.
			d.Verdict = Drop
			if h != nil {
				seq := lst.dropPkts.Add(1)
				lst.dropBytes.Add(sz)
				bs.traces = append(bs.traces, pendingTrace{seq: seq, idx: int32(i)})
			} else {
				bs.leafDrop(leaf, sz)
			}
			continue
		}

		d.Verdict = Forward
		if d.Marked {
			lst.markPkts.Add(1)
		}
		bs.count(lbl.Path, sz)
		if h != nil {
			seq := lst.fwdPkts.Add(1)
			lst.fwdBytes.Add(sz)
			bs.traces = append(bs.traces, pendingTrace{seq: seq, idx: int32(i)})
		} else {
			bs.leafFwd(leaf, sz)
		}
	}

	// Flush: one estimator Count per touched class. No epoch can have
	// rolled since a class's bytes began accumulating (its single check
	// ran before its first consume), so deferral is invisible to Γ.
	for _, c := range bs.touched {
		s.states[c.ID].est.Count(bs.fwd[c.ID])
		bs.fwd[c.ID] = 0
	}

	// Flush the telemetry-detached leaf verdict counters: one atomic
	// add per counter per touched leaf instead of two per packet.
	for _, c := range bs.cntTouched {
		lst := &s.states[c.ID]
		if pk := bs.fwdPk[c.ID]; pk != 0 {
			lst.fwdPkts.Add(int64(pk))
			lst.fwdBytes.Add(bs.fwdBy[c.ID])
			bs.fwdPk[c.ID], bs.fwdBy[c.ID] = 0, 0
		}
		if pk := bs.dropPk[c.ID]; pk != 0 {
			lst.dropPkts.Add(int64(pk))
			lst.dropBytes.Add(bs.dropBy[c.ID])
			bs.dropPk[c.ID], bs.dropBy[c.ID] = 0, 0
		}
	}
	bs.cntTouched = bs.cntTouched[:0]
	bs.touched = bs.touched[:0]

	// Batched trace emission. QueueDepth on sampled events reads the
	// post-batch bucket level — the price of keeping sampling off the
	// verdict loop. The leaf's verdict ordinal doubles as the sampling
	// sequence, so tracing costs the unsampled path nothing.
	if h != nil {
		for _, pt := range bs.traces {
			lbl := reqs[pt.idx].Label
			h.trace(pt.seq, now, lbl, &s.states[lbl.Leaf.ID],
				int64(reqs[pt.idx].Size), &out[pt.idx])
		}
		bs.traces = bs.traces[:0]
	}
}

// borrow is lines 9–15 of Algorithm 1 for a packet whose leaf meter ran
// red: query the shadow bucket of each lender in the borrowing label.
// The query is "another practice of the rate-limiting process" (§IV-C):
// the borrower opportunistically runs the lender's update subprocedure
// (once per batch, like the path classes) so that an idle lender's
// shadow keeps filling at its lendable rate even though the lender
// itself sees no packet arrivals. It reports whether a lender admitted
// the packet, setting d.Borrowed and d.Lender.
//
//fv:hotpath
func (s *Scheduler) borrow(lbl *tree.Label, sz, now int64, gen uint32, bs *batchScratch, d *Decision, flt *schedFaults) bool {
	for _, lender := range lbl.Borrow {
		if sc := s.shard; sc != nil && !sc.owns(lender.ID) {
			// Remote lender: spend from the shard-local lease instead
			// of the lender's shadow bucket (which lives — and is
			// refilled — on the owner shard only; touching a replica's
			// copy would mint tokens twice). The lender-side Γ and
			// lending counters are settled by the reconciler.
			if !sc.tryLease(lender.ID, sz) {
				continue
			}
		} else {
			ls := &s.states[lender.ID]
			if bs.seen[lender.ID] != gen {
				bs.seen[lender.ID] = gen
				s.maybeUpdate(lender, ls, now, d, flt)
			}
			if !ls.shadow.TryConsume(sz) {
				continue
			}
			ls.lentBytes.Add(sz)
			ls.lentEpoch.Add(sz)
			// The lender's reservation is in active use, so its
			// status must not expire while it keeps lending.
			ls.lastSeen.Store(now)
			// Lent bandwidth is consumption of the lender's
			// reservation: it must appear in the lender's Γ so the
			// rate-distribution templates see the share as used
			// (Fig 9). When the lender sits on the packet's own
			// hierarchy path, the path count already covers it —
			// "its flow rate is fully reflected on S2's token
			// consumption rate" — so skip the extra count.
			if !labelPathContains(lbl, lender) {
				bs.countOne(lender, sz)
			}
		}
		d.Borrowed = true
		d.Lender = lender
		return true
	}
	return false
}
