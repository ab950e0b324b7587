// Package core implements FlowValve's scheduling function — the paper's
// primary contribution (§IV).
//
// A Scheduler holds the runtime state of one scheduling tree: per-class
// token buckets (limiting at leaves, measuring at interior nodes), shadow
// buckets publishing lendable bandwidth, consumption-rate estimators, and
// the per-class update locks. ScheduleBatch is Algorithm 1, and Schedule
// is its burst of one: walk the packet's hierarchy label root→leaf
// performing opportunistic (try-lock) epoch updates and consumption
// counting, meter at the leaf, borrow from the shadow buckets named in
// the borrowing label on red, and otherwise drop — the "specialized tail
// drop" that assigns the NIC's single FIFO conceptually among classes.
//
// The scheduler is time-source-agnostic (clock.Clock) and safe for
// concurrent use: under the discrete-event NIC model it is driven
// single-threaded with explicit cycle costs, while the wall-clock
// benchmarks drive it from many goroutines exactly as the NP's
// micro-engines would.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flowvalve/internal/clock"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/token"
)

// LockMode selects the scheduling-tree update synchronization strategy.
// FlowValve's design is per-class try-locks (Fig 7-(c)); the other modes
// exist for the paper's design-space ablation (Fig 7-(a)/(b)).
type LockMode int

const (
	// PerClassTryLock is FlowValve's design: each class has its own
	// update lock; cores that fail to acquire it skip the update and
	// only meter. Packet forwarding never blocks.
	PerClassTryLock LockMode = iota + 1
	// GlobalLock funnels every update through one blocking lock,
	// emulating a naive port of the kernel qdisc (Fig 7-(b)).
	GlobalLock
	// NoLock runs updates with no mutual exclusion (Fig 7-(a)); token
	// accounting stays memory-safe (atomics) but epochs race, producing
	// the inaccuracy the paper demonstrates.
	NoLock
)

// Config tunes the scheduler. The zero value is usable: Defaults fills in
// the paper-calibrated values.
type Config struct {
	// UpdateIntervalNs is the minimum epoch length between two update
	// subprocedures of the same class. Smaller is more reactive but
	// costs more cycles (ablation: update-interval sweep).
	UpdateIntervalNs int64
	// ExpireAfterNs is the idle threshold after which per-class status
	// (estimators, bucket levels) is restored to its initial value
	// (§IV-C subprocedure 3).
	ExpireAfterNs int64
	// BurstNs sizes each class bucket to θ·BurstNs (clamped below by
	// MinBurstBytes) — the depth of the emulated per-class queue.
	BurstNs int64
	// ShadowBurstNs sizes shadow buckets; lendable tokens older than
	// this are considered stale and are not offered to borrowers.
	ShadowBurstNs int64
	// MinBurstBytes floors every bucket so a class can always pass at
	// least a few MTUs back-to-back.
	MinBurstBytes int64
	// EWMAAlpha smooths the Γ estimators; 1 = instantaneous.
	EWMAAlpha float64
	// Lock selects the update synchronization strategy.
	Lock LockMode
	// ECNMarkFrac is an extension beyond the paper: virtual-queue ECN.
	// When positive, a green packet is forwarded *marked* whenever its
	// leaf bucket has fallen below this fraction of its burst — an
	// early congestion signal a cooperating transport reacts to before
	// the bucket runs red. Red packets still drop, so the policy stays
	// hard-enforced; the marks just collapse the loss rate. Typical
	// value 0.5; 0 disables marking.
	ECNMarkFrac float64
}

// Defaults returns cfg with unset fields replaced by the calibrated
// defaults used throughout the evaluation.
func (c Config) Defaults() Config {
	if c.UpdateIntervalNs <= 0 {
		// 50µs epochs: each refill lump (θ·ΔT) must fit inside the
		// traffic manager's per-port buffer or admission becomes
		// bursty enough to overflow it, and a refill gap must never
		// outlast that buffer or the wire idles. Cheap on the cycle
		// budget — §IV-D: the NP's rate estimation runs at high
		// sampling frequency.
		c.UpdateIntervalNs = 50_000
	}
	if c.ExpireAfterNs <= 0 {
		c.ExpireAfterNs = 50_000_000 // 50ms idle → expired
	}
	if c.BurstNs <= 0 {
		c.BurstNs = 4_000_000 // 4ms of tokens
	}
	if c.ShadowBurstNs <= 0 {
		c.ShadowBurstNs = 2_000_000
	}
	if c.MinBurstBytes <= 0 {
		c.MinBurstBytes = 32 * 1024
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		// Keeps the Γ time constant at ≈1ms with 50µs epochs.
		c.EWMAAlpha = 0.05
	}
	if c.Lock == 0 {
		c.Lock = PerClassTryLock
	}
	return c
}

// classState is the mutable runtime state of one class. All fields are
// updated either atomically (meters, counters, published rates) or under
// mu (epoch rolls, child-rate recomputation).
type classState struct {
	mu sync.Mutex

	bucket token.Bucket // leaf: limits; interior: measures
	shadow token.Bucket // lendable tokens (Eq. 6)
	est    *token.Estimator

	theta      token.AtomicFloat64 // granted token rate, bytes/s
	lendRate   token.AtomicFloat64 // published lendable rate, bytes/s
	lastUpdate atomic.Int64        // ns of last epoch roll
	lastSeen   atomic.Int64        // ns of last packet touching this class
	lentEpoch  atomic.Int64        // bytes lent from the shadow this epoch
	lendCarry  atomic.Int64        // interior lend ledger: deficit carried across epochs

	// Scratch for tree.ChildRates, guarded by mu.
	rateScratch []float64

	// Statistics (atomic; read via Snapshot).
	fwdPkts    atomic.Int64
	fwdBytes   atomic.Int64
	dropPkts   atomic.Int64
	dropBytes  atomic.Int64
	borrowPkts atomic.Int64 // forwarded via a shadow bucket
	markPkts   atomic.Int64 // forwarded with a congestion mark
	lentBytes  atomic.Int64 // granted to borrowers from this shadow
	updates    atomic.Int64 // epoch rolls executed
}

// Scheduler is a FlowValve instance bound to one scheduling tree.
type Scheduler struct {
	tree   *tree.Tree
	clk    clock.Clock
	cfg    Config
	states []classState

	// manualClk/wallClk cache the concrete type behind clk (probed once
	// in New) so the per-packet and per-batch time reads devirtualize:
	// the stock clocks are final, and an interface dispatch per packet
	// is exactly the kind of hidden cost the boxing analyzer polices.
	manualClk *clock.Manual
	wallClk   *clock.Wall

	// globalMu is the GlobalLock-mode epoch lock. It is the outermost
	// scheduler lock by decree: per-class locks may be taken under it
	// (the locking-ablation harness compares the modes), never the
	// reverse.
	//
	//fv:lockorder core.Scheduler.globalMu before core.classState.mu
	globalMu sync.Mutex

	// batchPool recycles ScheduleBatch working sets; concurrent batches
	// each draw their own, so batching stays allocation-free without
	// sharing scratch across goroutines.
	batchPool sync.Pool

	// tel is the attached observability state (nil when telemetry is
	// off). Swapped atomically so AttachTelemetry is safe against
	// in-flight Schedule calls.
	tel atomic.Pointer[telHooks]

	// flt is the installed fault-injection state (nil when fault-free).
	// Swapped atomically like tel, so ApplyFaults is safe against
	// in-flight Schedule calls and the no-fault path costs one load.
	flt atomic.Pointer[schedFaults]

	// shard is non-nil when this scheduler is one shard of a
	// ShardedScheduler (see shard.go): it carries the shard's identity,
	// the class→owner partition, and the shard-local lease buckets that
	// stand in for remote lenders' shadow buckets. A standalone
	// scheduler leaves it nil and pays one nil check on the borrow path.
	shard *shardCtx
}

// shardCtx is one shard's view of the cross-shard partition. The owner
// and slot tables are immutable after construction; the lease states
// are written by this shard's scheduling goroutine (consumption) and
// the settlement reconciler (grants).
type shardCtx struct {
	id    int32
	owner []int32 // ClassID → owning shard
	slot  []int32 // ClassID → lease slot, -1 when the class is not a cross-shard lender

	// leases holds this shard's local token leases, one per cross-shard
	// lender (indexed by slot). Tokens are granted by the reconciler at
	// settlement and consumed here between settlements, so borrowing
	// never touches another shard's cache lines on the packet path.
	leases []leaseState
}

// leaseState is one shard's local lease on a remote lender's shadow
// bucket. tokens is the spendable balance (granted − consumed, never
// negative); consumed is the cumulative spend the reconciler settles
// against the owner shard's accounting at epoch boundaries.
type leaseState struct {
	tokens   atomic.Int64
	consumed atomic.Int64
	_        [48]byte // one lease per cache line: the reconciler's grant writes must not false-share neighbours
}

// owns reports whether class id lives on this shard's partition.
func (sc *shardCtx) owns(id tree.ClassID) bool { return sc.owner[id] == sc.id }

// tryLease spends sz bytes from the local lease on a remote lender,
// reporting success. The CAS loop keeps the balance non-negative even
// with concurrent inline callers on the same shard.
//
//fv:hotpath
func (sc *shardCtx) tryLease(id tree.ClassID, sz int64) bool {
	slot := sc.slot[id]
	if slot < 0 {
		return false
	}
	ls := &sc.leases[slot]
	for {
		cur := ls.tokens.Load()
		if cur < sz {
			return false
		}
		if ls.tokens.CompareAndSwap(cur, cur-sz) {
			ls.consumed.Add(sz)
			return true
		}
	}
}

// New builds a scheduler over t, reading time from clk. It validates that
// the tree has a rated root and primes every class with its initial token
// rate (computed top-down assuming zero measured consumption).
func New(t *tree.Tree, clk clock.Clock, cfg Config) (*Scheduler, error) {
	if t == nil || t.Root() == nil {
		return nil, fmt.Errorf("core: nil scheduling tree")
	}
	if clk == nil {
		return nil, fmt.Errorf("core: nil clock")
	}
	cfg = cfg.Defaults()
	s := &Scheduler{
		tree:   t,
		clk:    clk,
		cfg:    cfg,
		states: make([]classState, t.Len()),
	}
	switch c := clk.(type) {
	case *clock.Manual:
		s.manualClk = c
	case *clock.Wall:
		s.wallClk = c
	}
	for i := range s.states {
		s.states[i].est = token.NewEstimator(cfg.EWMAAlpha)
	}
	classes := t.Len()
	s.batchPool.New = func() any { return newBatchScratch(classes) }
	s.prime()
	return s, nil
}

// now reads the scheduler clock, dispatching statically to the stock
// concrete clocks. Custom Clock implementations (none in-tree) fall back
// to the virtual call.
//
//fv:hotpath
func (s *Scheduler) now() int64 {
	if m := s.manualClk; m != nil {
		return m.Now()
	}
	if w := s.wallClk; w != nil {
		return w.Now()
	}
	//fv:boxing-ok out-of-tree Clock implementations take the virtual slow path; both stock clocks devirtualize above
	return s.clk.Now()
}

// prime distributes initial token rates top-down with Γ=0 and fills every
// bucket to its burst, so the first packets of a fresh run are admitted.
func (s *Scheduler) prime() {
	now := s.clk.Now()
	root := s.tree.Root()
	s.states[root.ID].theta.Store(root.RateBps / 8)
	// Breadth-first: parents before children.
	queue := []*tree.Class{root}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		st := &s.states[c.ID]
		theta := st.theta.Load()
		st.bucket.Reset(s.burstFor(theta, s.cfg.BurstNs))
		st.shadow.Reset(0)
		st.lastUpdate.Store(now)
		st.lastSeen.Store(now)
		if len(c.Children) > 0 {
			rates := tree.ChildRates(c, theta, func(*tree.Class) float64 { return 0 }, st.rateScratch)
			st.rateScratch = rates
			for i, ch := range c.Children {
				s.states[ch.ID].theta.Store(rates[i])
				queue = append(queue, ch)
			}
		}
	}
}

// burstFor sizes a bucket for a given rate over the configured horizon.
func (s *Scheduler) burstFor(rate float64, horizonNs int64) int64 {
	b := int64(rate * float64(horizonNs) / 1e9)
	if b < s.cfg.MinBurstBytes {
		b = s.cfg.MinBurstBytes
	}
	return b
}

// Tree returns the scheduling tree the scheduler enforces.
func (s *Scheduler) Tree() *tree.Tree { return s.tree }

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Theta returns the current granted token rate of a class in bits/second,
// for monitoring and tests.
func (s *Scheduler) Theta(c *tree.Class) float64 {
	return s.states[c.ID].theta.Load() * 8
}

// Gamma returns the current measured consumption rate of a class in
// bits/second (zero if expired).
func (s *Scheduler) Gamma(c *tree.Class) float64 {
	return s.effectiveGammaAt(c, s.clk.Now()) * 8
}
