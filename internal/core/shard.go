package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/faults"
	"flowvalve/internal/fvassert"
	"flowvalve/internal/sched/tree"
)

// This file implements the sharded multi-core scheduler: N scheduler
// shards, each owning a hash-partition of the class tree, with
// cross-shard token lending accumulated in shard-local leases and
// settled only at epoch boundaries by a reconciler (the paper's
// shadow-bucket lending already batches reconciliation by epoch — this
// is the same trick applied across cores).
//
// Partition model. Whole top-level subtrees (the root's children and
// all their descendants) are co-located on one shard, so everything a
// packet touches on its hierarchy path — except the root — lives on
// the shard that schedules it: per-class epoch updates, bucket
// metering, and within-subtree borrowing need no cross-shard
// synchronization at all. Each shard holds a full *Scheduler replica
// over the shared immutable tree; replicas of classes a shard does not
// own simply never see traffic. The root is the one class split across
// shards: every replica rolls its own root epochs over its local
// traffic, and the settlement reconciler is the only place the global
// root picture (child rates, lendable minting) is assembled.
//
// Cross-shard lending. A borrower whose borrow label names a class on
// another shard must not touch that class's replica (refilling a
// replica shadow would mint the same tokens on two shards). Instead
// each shard holds a local lease per cross-shard lender: the
// reconciler debits the owner's shadow bucket once and distributes the
// tokens into the borrower shards' leases; packets spend the lease
// with shard-local atomics. Conservation is exact by construction —
// every token in a lease was TryConsume'd out of the owner's shadow —
// and fvassert-checked at each settlement.

// ShardConfig tunes the sharded scheduler.
type ShardConfig struct {
	// Shards is the number of scheduler shards (N=1 degenerates to a
	// plain scheduler with identical, bit-for-bit behaviour).
	Shards int
	// SettleEveryNs is the cross-shard settlement epoch: how often the
	// reconciler assembles the global root picture and re-grants
	// lending leases. Defaults to 4× the scheduler's UpdateIntervalNs —
	// settlement is deliberately coarser than per-class epochs, that is
	// the point of epoch-settled lending.
	SettleEveryNs int64
	// RingPkts bounds each shard's MPSC feed ring in parallel mode
	// (rounded up to a power of two; default 1024).
	RingPkts int
}

// Defaults fills unset fields.
func (c ShardConfig) Defaults(sched Config) ShardConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.SettleEveryNs <= 0 {
		c.SettleEveryNs = 4 * sched.UpdateIntervalNs
	}
	if c.RingPkts <= 0 {
		c.RingPkts = 1024
	}
	return c
}

// lenderSite is the reconciler's bookkeeping for one cross-shard
// lender: the shards that borrow from it and the cumulative
// grant/settle ledgers per borrower shard. All fields are
// reconciler-owned (guarded by settleMu) except what it reads from the
// borrower shards' lease atomics.
type lenderSite struct {
	c         *tree.Class
	owner     int32
	slot      int32
	borrowers []int32 // borrowing shard ids, ascending, owner excluded
	granted   []int64 // cumulative bytes granted, per borrowers index
	settled   []int64 // cumulative consumed bytes last observed, per borrowers index
}

// ShardedScheduler drives N scheduler shards over one class tree. It
// implements dataplane.Scheduler (inline mode: the caller's goroutine
// partitions each batch and runs the shards in ascending order —
// deterministic, DES-compatible) and a parallel mode (see
// shard_parallel.go) where each shard runs a worker goroutine fed by a
// bounded lock-free MPSC ring.
type ShardedScheduler struct {
	tree *tree.Tree
	clk  clock.Clock
	// manualClk/wallClk mirror Scheduler's concrete-clock cache so the
	// per-batch settlement time read stays a static call (see
	// Scheduler.now).
	manualClk *clock.Manual
	wallClk   *clock.Wall
	cfg       Config
	scfg      ShardConfig
	n         int
	inner     []*Scheduler
	owner     []int32 // ClassID → owning shard

	lenders []lenderSite

	// Settlement state. settleMu serializes reconciliations; whichever
	// caller (or shard worker) first observes the settlement epoch
	// elapsed takes the TryLock and settles for everyone. If settlement
	// ever needs per-class state under lock, it must take class locks
	// *inside* settleMu — a class-lock holder must never wait on the
	// reconciler. The declared order below makes fvlint reject the
	// reverse nesting the day someone introduces it.
	//
	//fv:lockorder core.ShardedScheduler.settleMu before core.classState.mu
	settleMu    sync.Mutex
	lastSettle  atomic.Int64
	settles     atomic.Int64
	rootScratch []float64

	// partPool recycles inline-mode partition scratch (counting sort +
	// per-shard request/decision staging), so inline sharded batching
	// stays allocation-free. Parallel workers never touch it — each
	// owns a dedicated scratch (see shard_parallel.go).
	partPool sync.Pool

	// Parallel-mode state (nil/false until StartWorkers).
	rings   []*feedRing
	workers []*shardWorker
	started atomic.Bool
	stopped atomic.Bool
	wg      sync.WaitGroup
}

var (
	_ dataplane.Scheduler  = (*ShardedScheduler)(nil)
	_ dataplane.Sharder    = (*ShardedScheduler)(nil)
	_ faults.SchedulerSink = (*ShardedScheduler)(nil)
)

// NewSharded builds a sharded scheduler over t with scfg.Shards shards.
// With Shards == 1 every call delegates straight to a single plain
// Scheduler — bit-identical to New, which is what keeps the DES
// deterministic baseline intact.
func NewSharded(t *tree.Tree, clk clock.Clock, cfg Config, scfg ShardConfig) (*ShardedScheduler, error) {
	if t == nil || t.Root() == nil {
		return nil, fmt.Errorf("core: nil scheduling tree")
	}
	if clk == nil {
		return nil, fmt.Errorf("core: nil clock")
	}
	cfg = cfg.Defaults()
	scfg = scfg.Defaults(cfg)
	ss := &ShardedScheduler{
		tree: t,
		clk:  clk,
		cfg:  cfg,
		scfg: scfg,
		n:    scfg.Shards,
	}
	switch c := clk.(type) {
	case *clock.Manual:
		ss.manualClk = c
	case *clock.Wall:
		ss.wallClk = c
	}
	ss.owner = partitionTree(t, ss.n)
	for k := 0; k < ss.n; k++ {
		in, err := New(t, clk, cfg)
		if err != nil {
			return nil, err
		}
		ss.inner = append(ss.inner, in)
	}
	if ss.n > 1 {
		slot, lenders := discoverLenders(t, ss.owner)
		ss.lenders = lenders
		for k := 0; k < ss.n; k++ {
			ss.inner[k].shard = &shardCtx{
				id:     int32(k),
				owner:  ss.owner,
				slot:   slot,
				leases: make([]leaseState, len(lenders)),
			}
		}
	}
	ss.lastSettle.Store(clk.Now())
	ss.partPool.New = func() any { return newPartScratch(ss.n) }
	return ss, nil
}

// partitionTree assigns every class to a shard: whole top-level
// subtrees co-locate, the root goes to shard 0. Subtrees are placed in
// hash order (FNV-1a over the subtree name through the MurmurHash3
// finalizer — the same mix the PR 4 flow cache shards by) onto the
// currently least-loaded shard, weighted by leaf count: deterministic
// under tenant renames and bounded to one subtree of imbalance, where
// a bare hash-mod would leave shards empty at small tenant counts.
func partitionTree(t *tree.Tree, n int) []int32 {
	owner := make([]int32, t.Len())
	root := t.Root()
	owner[root.ID] = 0
	if n <= 1 {
		return owner
	}
	type subtree struct {
		top    *tree.Class
		hash   uint64
		leaves int64
	}
	tops := make([]subtree, 0, len(root.Children))
	for _, top := range root.Children {
		s := subtree{top: top, hash: subtreeHash(top.Name)}
		var walk func(*tree.Class)
		walk = func(c *tree.Class) {
			if c.Leaf() {
				s.leaves++
			}
			for _, ch := range c.Children {
				walk(ch)
			}
		}
		walk(top)
		if s.leaves == 0 {
			s.leaves = 1
		}
		tops = append(tops, s)
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].hash != tops[j].hash {
			return tops[i].hash < tops[j].hash
		}
		return tops[i].top.Name < tops[j].top.Name
	})
	load := make([]int64, n)
	for _, s := range tops {
		best := 0
		for k := 1; k < n; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		load[best] += s.leaves
		var assign func(*tree.Class)
		assign = func(c *tree.Class) {
			owner[c.ID] = int32(best)
			for _, ch := range c.Children {
				assign(ch)
			}
		}
		assign(s.top)
	}
	return owner
}

// subtreeHash hashes a subtree's identity for shard placement: FNV-1a
// over the name, finalized with the MurmurHash3 mixer (the same
// finalizer the sharded flow cache uses, so placement quality matches
// PR 4's partitioning).
func subtreeHash(name string) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// discoverLenders walks every leaf label and records the classes whose
// shadow bucket some other shard borrows from, assigning each a lease
// slot. Returns the ClassID→slot table and the reconciler sites.
func discoverLenders(t *tree.Tree, owner []int32) ([]int32, []lenderSite) {
	slot := make([]int32, t.Len())
	for i := range slot {
		slot[i] = -1
	}
	var lenders []lenderSite
	seen := make(map[tree.ClassID]map[int32]bool)
	for _, leaf := range t.Leaves() {
		lbl := t.LabelFor(leaf)
		if lbl == nil {
			continue
		}
		borrowerShard := owner[leaf.ID]
		for _, lender := range lbl.Borrow {
			if owner[lender.ID] == borrowerShard {
				continue
			}
			if slot[lender.ID] < 0 {
				slot[lender.ID] = int32(len(lenders))
				lenders = append(lenders, lenderSite{
					c:     lender,
					owner: owner[lender.ID],
					slot:  slot[lender.ID],
				})
				seen[lender.ID] = make(map[int32]bool)
			}
			seen[lender.ID][borrowerShard] = true
		}
	}
	for i := range lenders {
		L := &lenders[i]
		for sh := range seen[L.c.ID] {
			L.borrowers = append(L.borrowers, sh)
		}
		sort.Slice(L.borrowers, func(a, b int) bool { return L.borrowers[a] < L.borrowers[b] })
		L.granted = make([]int64, len(L.borrowers))
		L.settled = make([]int64, len(L.borrowers))
	}
	return slot, lenders
}

// Tree returns the scheduling tree.
func (ss *ShardedScheduler) Tree() *tree.Tree { return ss.tree }

// Config returns the effective scheduler configuration.
func (ss *ShardedScheduler) Config() Config { return ss.cfg }

// ShardConfig returns the effective shard configuration.
func (ss *ShardedScheduler) ShardConfig() ShardConfig { return ss.scfg }

// Shards implements dataplane.Sharder.
func (ss *ShardedScheduler) Shards() int { return ss.n }

// now reads the clock through the concrete fast path, exactly as
// Scheduler.now does for the per-shard schedulers.
//
//fv:hotpath
func (ss *ShardedScheduler) now() int64 {
	if m := ss.manualClk; m != nil {
		return m.Now()
	}
	if w := ss.wallClk; w != nil {
		return w.Now()
	}
	//fv:boxing-ok out-of-tree Clock implementations take the virtual slow path; both stock clocks devirtualize above
	return ss.clk.Now()
}

// ShardOf implements dataplane.Sharder: the shard that owns (and must
// schedule) the label's leaf.
func (ss *ShardedScheduler) ShardOf(lbl *tree.Label) int { return int(ss.owner[lbl.Leaf.ID]) }

// OwnerTable implements dataplane.OwnerTabler: the immutable ClassID →
// owning-shard partition, shared (not copied) with steering consumers.
func (ss *ShardedScheduler) OwnerTable() []int32 { return ss.owner }

// Settles reports how many settlement reconciliations have run.
func (ss *ShardedScheduler) Settles() int64 { return ss.settles.Load() }

// Schedule implements dataplane.Scheduler inline: route the packet to
// its owner shard on the caller's goroutine.
//
//fv:hotpath
func (ss *ShardedScheduler) Schedule(lbl *tree.Label, size int) Decision {
	if ss.n == 1 {
		return ss.inner[0].Schedule(lbl, size)
	}
	ss.maybeSettle(ss.now())
	return ss.inner[ss.owner[lbl.Leaf.ID]].Schedule(lbl, size)
}

// partScratch is one inline ScheduleBatch call's partition working set.
//
//fv:owner
type partScratch struct {
	fill []int32 // per-shard write cursors (counting sort)
	idx  []int32 // request indices grouped by shard, input order preserved
	reqs []Request
	dec  []Decision
}

func newPartScratch(shards int) *partScratch {
	return &partScratch{fill: make([]int32, shards+1)}
}

func (ps *partScratch) grow(n int) {
	if cap(ps.idx) < n {
		ps.idx = make([]int32, n) //fv:coldpath pooled scratch grows to the largest burst once, then never again
		ps.reqs = make([]Request, n)
		ps.dec = make([]Decision, n)
	}
}

// ScheduleBatch implements dataplane.Scheduler inline: the batch is
// stably partitioned by owner shard and each shard's sub-batch runs on
// the caller's goroutine in ascending shard order — single-threaded
// and deterministic, which is exactly what the DES and the NIC burst
// service need. Parallel execution goes through the feed rings instead
// (StartWorkers/Feed).
//
//fv:hotpath
func (ss *ShardedScheduler) ScheduleBatch(reqs []dataplane.Request, out []dataplane.Decision) {
	n := len(reqs)
	if n == 0 {
		return
	}
	if ss.n == 1 {
		ss.inner[0].ScheduleBatch(reqs, out)
		return
	}
	ss.maybeSettle(ss.now())
	ps := ss.partPool.Get().(*partScratch)
	ps.grow(n)
	fill := ps.fill
	for k := range fill {
		fill[k] = 0
	}
	for i := range reqs {
		fill[ss.owner[reqs[i].Label.Leaf.ID]+1]++
	}
	for k := 1; k < len(fill); k++ {
		fill[k] += fill[k-1]
	}
	idx := ps.idx[:n]
	for i := range reqs {
		sh := ss.owner[reqs[i].Label.Leaf.ID]
		idx[fill[sh]] = int32(i)
		fill[sh]++
	}
	// After placement fill[k] is the end of shard k's segment.
	lo := int32(0)
	for k := 0; k < ss.n; k++ {
		hi := fill[k]
		m := int(hi - lo)
		if m == 0 {
			continue
		}
		sub, dec := ps.reqs[:m], ps.dec[:m]
		for j := 0; j < m; j++ {
			sub[j] = reqs[idx[lo+int32(j)]]
		}
		ss.inner[k].ScheduleBatch(sub, dec)
		for j := 0; j < m; j++ {
			out[idx[lo+int32(j)]] = dec[j]
		}
		lo = hi
	}
	//fv:owner-ok ownership returns to the pool: this frame holds the only reference and never touches ps after the Put
	ss.partPool.Put(ps)
}

// maybeSettle runs a settlement reconciliation if the settlement epoch
// has elapsed. Non-blocking: concurrent callers skip when another is
// already settling.
func (ss *ShardedScheduler) maybeSettle(now int64) {
	if now-ss.lastSettle.Load() < ss.scfg.SettleEveryNs {
		return
	}
	if !ss.settleMu.TryLock() {
		return
	}
	if now-ss.lastSettle.Load() >= ss.scfg.SettleEveryNs {
		//fv:coldpath settlement reconciliation: runs once per SettleEveryNs across all shards, amortized off the batch path
		ss.settleLocked(now)
		ss.lastSettle.Store(now)
	}
	ss.settleMu.Unlock()
}

// ForceSettle runs a reconciliation immediately (tests, DES warm-up).
func (ss *ShardedScheduler) ForceSettle() {
	if ss.n == 1 {
		return
	}
	now := ss.clk.Now()
	ss.settleMu.Lock()
	ss.settleLocked(now)
	ss.lastSettle.Store(now)
	ss.settleMu.Unlock()
}

// settleLocked is the epoch-boundary reconciler. Caller holds settleMu.
//
// Three responsibilities, in order:
//
//  1. Root child rates: assemble the global Γ picture from the owner
//     shards and run the condition templates once, writing each
//     top-level class's θ back to its owner replica. (Per-replica root
//     updates skip this — see Scheduler.update.)
//  2. Root lendable: aggregate root Γ across replicas, mint the
//     lendable supply once into the root owner's shadow bucket.
//  3. Lease settlement per cross-shard lender: fold the borrower
//     shards' consumed bytes into the owner's Γ/lending ledgers, then
//     re-grant from the owner's shadow — debited via TryConsume, so a
//     granted token exists in exactly one place (shadow, lease, or
//     settled consumption) at any instant.
//
// Invariants (fvassert-gated): per (lender, shard) the lease balance
// is never negative and cumulative consumed never exceeds cumulative
// granted; in single-driver (deterministic) mode additionally
// granted == consumed + balance exactly.
func (ss *ShardedScheduler) settleLocked(now int64) {
	dt := now - ss.lastSettle.Load()
	root := ss.tree.Root()
	owner0 := ss.inner[ss.owner[root.ID]]
	rootSt := &owner0.states[root.ID]
	rootTheta := rootSt.theta.Load()

	// 1. Global root child rates.
	gamma := func(c *tree.Class) float64 {
		return ss.inner[ss.owner[c.ID]].effectiveGammaAt(c, now)
	}
	ss.rootScratch = tree.ChildRates(root, rootTheta, gamma, ss.rootScratch)
	for i, ch := range root.Children {
		ss.inner[ss.owner[ch.ID]].states[ch.ID].theta.Store(ss.rootScratch[i])
	}

	// 2. Root lendable, minted once from the aggregate Γ.
	var aggGamma float64
	for _, in := range ss.inner {
		aggGamma += in.effectiveGammaAt(root, now)
	}
	lendable := tree.Lendable(rootTheta, aggGamma)
	rootSt.lendRate.Store(lendable)
	rootSt.shadow.SetBurst(owner0.burstFor(rootTheta, ss.cfg.ShadowBurstNs))
	if mint := int64(lendable * float64(dt) / 1e9); mint > 0 {
		if fvassert.Enabled && float64(mint) > rootTheta*float64(dt)/1e9+1 {
			fvassert.Failf("core: settlement minted %d root lendable bytes over dt=%d at θ=%g: conservation violated",
				mint, dt, rootTheta)
		}
		rootSt.shadow.Refill(mint)
	}

	// 3. Lease settlement.
	strict := fvassert.Enabled && !ss.started.Load()
	for li := range ss.lenders {
		L := &ss.lenders[li]
		ownerS := ss.inner[L.owner]
		st := &ownerS.states[L.c.ID]
		var newConsumed int64
		for bi, k := range L.borrowers {
			ls := &ss.inner[k].shard.leases[L.slot]
			tot := ls.consumed.Load()
			delta := tot - L.settled[bi]
			L.settled[bi] = tot
			newConsumed += delta
			if fvassert.Enabled {
				if tot > L.granted[bi] {
					fvassert.Failf("core: shard %d consumed %d of lender %q but only %d was granted: lease conservation violated",
						k, tot, L.c.Name, L.granted[bi])
				}
				if bal := ls.tokens.Load(); bal < 0 {
					fvassert.Failf("core: shard %d lease on %q has negative balance %d", k, L.c.Name, bal)
				} else if strict && L.granted[bi] != tot+bal {
					fvassert.Failf("core: lender %q shard %d: granted %d ≠ consumed %d + balance %d: lease tokens created or destroyed",
						L.c.Name, k, L.granted[bi], tot, bal)
				}
			}
		}
		if newConsumed > 0 {
			// Fold the cross-shard spend into the owner's ledgers:
			// lent bytes consume the lender's reservation (Γ and the
			// epoch lend ledger, as on the hot path), and an actively
			// lending class must not expire. The root is exempt from Γ
			// counting — a borrower's hierarchy path always contains
			// the root, so its own shard's path counting already
			// recorded the bytes (labelPathContains on the hot path).
			st.lentBytes.Add(newConsumed)
			st.lastSeen.Store(now)
			if L.c.Parent != nil {
				st.est.Count(newConsumed)
				st.lentEpoch.Add(newConsumed)
			}
		}
		// Re-grant: split the owner's current shadow balance across the
		// borrower shards, leaving the owner's local borrowers an equal
		// share, each lease capped at its share of the shadow burst so
		// an idle borrower cannot hoard stale tokens.
		nb := int64(len(L.borrowers))
		avail := st.shadow.Tokens()
		if avail <= 0 {
			continue
		}
		share := avail / (nb + 1)
		if share <= 0 {
			continue
		}
		capPer := ownerS.burstFor(st.theta.Load(), ss.cfg.ShadowBurstNs) / (nb + 1)
		for bi, k := range L.borrowers {
			ls := &ss.inner[k].shard.leases[L.slot]
			g := share
			if headroom := capPer - ls.tokens.Load(); g > headroom {
				g = headroom
			}
			if g > 0 && st.shadow.TryConsume(g) {
				ls.tokens.Add(g)
				L.granted[bi] += g
			}
		}
	}
	ss.settles.Add(1)
}

// ForceUpdate runs every shard's update subprocedure immediately, then
// a settlement — the DES warm-up path.
func (ss *ShardedScheduler) ForceUpdate() {
	for _, in := range ss.inner {
		in.ForceUpdate()
	}
	ss.ForceSettle()
}

// Theta returns a class's granted token rate in bits/second, read from
// its owner shard.
func (ss *ShardedScheduler) Theta(c *tree.Class) float64 {
	return ss.inner[ss.owner[c.ID]].Theta(c)
}

// Gamma returns a class's measured consumption rate in bits/second,
// aggregated across shards (only the root ever has traffic on more
// than one).
func (ss *ShardedScheduler) Gamma(c *tree.Class) float64 {
	var g float64
	for _, in := range ss.inner {
		g += in.Gamma(c)
	}
	return g
}

// Snapshot returns merged per-class statistics in ClassID order:
// owner-shard state for rates and bucket levels, counters summed
// across shards (replicas that never see traffic contribute zeros; the
// root's per-replica epoch rolls sum to the global count).
func (ss *ShardedScheduler) Snapshot() []ClassStats {
	if ss.n == 1 {
		return ss.inner[0].Snapshot()
	}
	classes := ss.tree.Classes()
	out := make([]ClassStats, len(classes))
	for i, c := range classes {
		out[i] = ss.StatsFor(c)
	}
	return out
}

// StatsFor returns the merged snapshot of a single class.
func (ss *ShardedScheduler) StatsFor(c *tree.Class) ClassStats {
	if ss.n == 1 {
		return ss.inner[0].StatsFor(c)
	}
	st := &ss.inner[ss.owner[c.ID]].states[c.ID]
	cs := ClassStats{
		Class:        c,
		ThetaBps:     st.theta.Load() * 8,
		LendableBps:  st.lendRate.Load() * 8,
		BucketTokens: st.bucket.Tokens(),
		ShadowTokens: st.shadow.Tokens(),
	}
	for _, in := range ss.inner {
		ist := &in.states[c.ID]
		cs.GammaBps += ist.est.Rate() * 8
		cs.FwdPkts += ist.fwdPkts.Load()
		cs.FwdBytes += ist.fwdBytes.Load()
		cs.DropPkts += ist.dropPkts.Load()
		cs.DropBytes += ist.dropBytes.Load()
		cs.BorrowPkts += ist.borrowPkts.Load()
		cs.MarkPkts += ist.markPkts.Load()
		cs.LentBytes += ist.lentBytes.Load()
		cs.Updates += ist.updates.Load()
	}
	return cs
}

// ApplyFaults implements faults.SchedulerSink with shard targeting: an
// event whose Shard field names "shard<k>" is routed to shard k only;
// an empty Shard applies everywhere. The per-shard splitmix64 streams
// are derived from the plan seed so shard 0's stream equals the
// single-scheduler stream — N=1 chaos runs stay bit-identical.
func (ss *ShardedScheduler) ApplyFaults(p *faults.Plan) error {
	if p == nil {
		for _, in := range ss.inner {
			in.ClearFaults()
		}
		return nil
	}
	for i := range p.Events {
		e := &p.Events[i]
		if e.Shard == "" {
			continue
		}
		k, ok := faults.ShardIndex(e.Shard)
		if !ok {
			return fmt.Errorf("core: fault event %d names malformed shard %q", i, e.Shard)
		}
		if k >= ss.n {
			return fmt.Errorf("core: fault event %d targets %q but only %d shard(s) exist", i, e.Shard, ss.n)
		}
	}
	for k, in := range ss.inner {
		sub := &faults.Plan{Seed: p.Seed + uint64(k)*0x9e3779b97f4a7c15}
		for _, e := range p.Events {
			if e.Shard != "" {
				if idx, _ := faults.ShardIndex(e.Shard); idx != k {
					continue
				}
				// Already routed; the inner scheduler's own "shard0"
				// filter must not re-apply to the copy.
				e.Shard = ""
			}
			sub.Events = append(sub.Events, e)
		}
		if err := in.ApplyFaults(sub); err != nil {
			return err
		}
	}
	return nil
}

// ClearFaults implements faults.SchedulerSink.
func (ss *ShardedScheduler) ClearFaults() {
	for _, in := range ss.inner {
		in.ClearFaults()
	}
}

// InjectedFaults implements faults.SchedulerSink, summing counters
// across shards.
func (ss *ShardedScheduler) InjectedFaults() faults.SchedulerCounts {
	var out faults.SchedulerCounts
	for _, in := range ss.inner {
		c := in.InjectedFaults()
		out.LockMisses += c.LockMisses
		out.DroppedEpochs += c.DroppedEpochs
		out.DelayedEpochs += c.DelayedEpochs
	}
	return out
}
