// Package dataplane defines the one interface every FlowValve scheduling
// backend speaks — the offloaded scheduling function on the NIC model and
// the software baselines (kernel HTB, kernel PRIO, DPDK QoS) alike — so
// the experiment harnesses, the benchmark tools, and the public facade
// drive all of them through the same calls instead of per-backend glue.
//
// Two planes are covered:
//
//   - Scheduler is the label-level hot path (Algorithm 1): a synchronous
//     forwarding decision per packet, with a batched variant that
//     amortizes clock reads, epoch checks, and estimator updates across a
//     burst — the software analogue of the NP running many packet
//     contexts through one pipeline pass.
//
//   - Qdisc is the discrete-event backend: packets go in via Enqueue,
//     deliveries and drops come back via Callbacks, and cumulative
//     counters come out of QdiscStats. Optional capabilities (host-CPU
//     accounting, backlog, telemetry, live policy swap) are discovered by
//     interface probes, never by concrete types.
package dataplane

import (
	"flowvalve/internal/faults"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/telemetry"
)

// Verdict is the forwarding decision of the scheduling function.
type Verdict int

const (
	// Forward admits the packet to the transmit buffer.
	Forward Verdict = iota + 1
	// Drop discards the packet — the specialized tail drop.
	Drop
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Forward:
		return "forward"
	case Drop:
		return "drop"
	default:
		return "invalid"
	}
}

// Decision reports the outcome of scheduling one packet, with enough
// detail for the NIC model to charge cycle costs and for tests to assert
// on the borrowing path.
type Decision struct {
	Verdict Verdict
	// Marked is true when the packet was forwarded carrying a
	// congestion mark instead of being dropped (Config.MarkOnRed).
	Marked bool
	// Borrowed is true when the packet passed on a lender's shadow
	// bucket rather than its own class bucket.
	Borrowed bool
	// Lender is the class whose shadow bucket admitted the packet
	// (nil unless Borrowed).
	Lender *tree.Class
	// Updates is the number of epoch updates executed while producing
	// this decision. Within a ScheduleBatch call each class is updated
	// at most once, and the cost lands on the first decision in the
	// batch that touched the class — summing Updates over a batch gives
	// the batch's total, so per-decision cycle charging stays correct.
	Updates int
	// LockMisses counts try-lock failures (another core held the class
	// lock) while producing this decision — only meaningful under real
	// concurrency. A miss is counted only when the class's epoch was
	// due: a class with no update due is not locked at all. Attributed
	// like Updates: at most once per class per batch, on the decision
	// that attempted the update.
	LockMisses int
	// Batched is the number of packets scheduled by the call that
	// produced this decision: 1 for Schedule, the batch length for
	// every decision of a ScheduleBatch call. Cycle models use it to
	// charge per-call fixed costs once per batch instead of once per
	// packet.
	Batched int
}

// Request is one packet's scheduling input in a batch.
type Request struct {
	// Label is the packet's QoS label (hierarchy path + borrow list).
	Label *tree.Label
	// Size is the packet size in bytes to charge against the buckets
	// (wire bytes when enforcing link rates).
	Size int
}

// Scheduler is the label-level scheduling function: Algorithm 1 as a
// synchronous call. Implementations must be safe for concurrent use.
type Scheduler interface {
	// Schedule decides the fate of one packet of `size` bytes carrying
	// QoS label lbl.
	Schedule(lbl *tree.Label, size int) Decision
	// ScheduleBatch decides a burst of packets in one pass, writing
	// out[i] for reqs[i]. len(out) must be at least len(reqs). The
	// verdict sequence is identical to calling Schedule per request at
	// batch size 1; at larger sizes per-packet work (clock reads, epoch
	// checks, estimator updates, trace emission) is amortized across
	// the batch while admitted byte totals stay conformant to the same
	// policy (the token supply is epoch-driven, not call-driven).
	ScheduleBatch(reqs []Request, out []Decision)
}

// Callbacks connects a Qdisc to the rest of the simulation. Either field
// may be nil.
//
// Packet lifetime: OnDeliver or OnDrop is the packet's last use inside
// the qdisc — nothing in the backend touches it afterwards — so the
// harness that owns the packet's packet.Alloc frees it at the end of the
// callback. A callback that re-injects the packet instead keeps it alive.
type Callbacks struct {
	// OnDeliver fires when a packet finishes transmitting on the wire;
	// p.EgressAt is set.
	OnDeliver func(p *packet.Packet)
	// OnDrop fires when the backend discards a packet.
	OnDrop func(p *packet.Packet)
}

// Stats are the cumulative counters every backend can report.
type Stats struct {
	// Enqueued counts packets accepted by the backend (injections on
	// the NIC model, queue admissions on the baselines).
	Enqueued uint64
	// Delivered counts packets that finished transmitting on the wire.
	Delivered uint64
	// Dropped counts packets the backend discarded, for any reason.
	Dropped uint64
}

// Qdisc is a discrete-event scheduling backend. All four backends
// (FlowValve-on-NIC, HTB, PRIO, DPDK QoS) implement it; harnesses drive
// them exclusively through this interface plus the capability probes
// below.
type Qdisc interface {
	// Enqueue hands one packet to the backend at the current simulation
	// time.
	Enqueue(p *packet.Packet)
	// QdiscStats returns the cumulative counters.
	QdiscStats() Stats
}

// HostAccountant is implemented by backends that burn host CPU on
// scheduling (the software baselines). Offloaded backends simply do not
// implement it — their host share is zero.
type HostAccountant interface {
	// HostCores reports the mean host cores consumed over a run of the
	// given duration.
	HostCores(durationNs int64) float64
}

// Backlogger is implemented by backends whose queue occupancy is
// observable as a packet count.
type Backlogger interface {
	Backlog() int
}

// TelemetrySink is implemented by backends that can register their
// metric families with an observability registry.
type TelemetrySink interface {
	AttachTelemetry(reg *telemetry.Registry)
}

// Swapper is implemented by backends whose scheduling function can be
// replaced live (the facade's policy-swap path, mirrored on the NIC
// model). Drivers probe for it before attempting a mid-run swap.
type Swapper interface {
	// Swap replaces the backend's scheduling function; a nil scheduler
	// turns the backend into a pass-through forwarder.
	Swap(s Scheduler)
}

// FlowCacheStats is a snapshot of a backend's exact-match flow cache
// (the classification fast path). Counters are cumulative since the
// cache was created or last flushed; Size/Capacity describe the table.
type FlowCacheStats struct {
	// Hits and Misses count lookup outcomes.
	Hits, Misses uint64
	// Evictions counts live entries displaced to admit new flows.
	Evictions uint64
	// ParseErrors counts frames the parser rejected on the miss path.
	ParseErrors uint64
	// Invalidations counts entries removed by targeted invalidation.
	Invalidations uint64
	// Size is the live entry count; Negative how many of those are
	// cached matched-nothing results.
	Size, Negative int
	// Capacity is the entry bound; Shards the concurrency sharding.
	Capacity, Shards int
}

// FlowCacher is implemented by backends with an observable flow cache
// (the NIC model; the software baselines classify per packet and do
// not). Harnesses probe for it to report cache behaviour under churn.
type FlowCacher interface {
	FlowCacheStats() FlowCacheStats
}

// Sharder is implemented by scheduling functions that partition the
// class tree across N scheduler shards (core.ShardedScheduler).
// Consumers probe for it to model per-shard feed queues: the NIC
// charges a steering cost per packet and a doorbell per shard lane it
// touches in a burst, and bounds each lane like a hardware feed ring.
// A scheduler that does not implement Sharder — or one reporting a
// single shard — is driven exactly as before.
type Sharder interface {
	// Shards reports the number of scheduler shards (≥ 1).
	Shards() int
	// ShardOf reports which shard owns (and must schedule) the label's
	// leaf class.
	ShardOf(lbl *tree.Label) int
}

// OwnerTabler is an optional Sharder refinement exposing the shard
// ownership partition as a flat table indexed by class ID. Steering
// consumers (the classifier's fused steer pass) prefer it over calling
// ShardOf per flow group: one bounds-checked load replaces a dynamic
// dispatch in the hottest loop of the receive path.
type OwnerTabler interface {
	// OwnerTable returns the ClassID → owning-shard table. The table is
	// immutable after construction and must not be written by callers.
	OwnerTable() []int32
}

// ShardsOf probes s for sharding, returning the shard count and the
// Sharder when s is sharded (shards > 1), or (1, nil) otherwise.
func ShardsOf(s Scheduler) (int, Sharder) {
	if sh, ok := s.(Sharder); ok {
		if n := sh.Shards(); n > 1 {
			return n, sh
		}
	}
	return 1, nil
}

// OffloadStats is a snapshot of a backend's fast-path/slow-path offload
// control plane (internal/offload): heavy-hitter installs against a
// bounded rule channel, demotions, and the traffic split between the NIC
// fast path and the host slow path.
type OffloadStats struct {
	// Enabled is false when the backend has no offload control plane
	// attached; every other field is then zero.
	Enabled bool
	// Offloaded is the number of flows currently holding a fast-path
	// rule; TableCap the rule-table capacity bounding it.
	Offloaded, TableCap int
	// QueueDepth/QueueCap describe the rule-install queue.
	QueueDepth, QueueCap int
	// ThresholdBytes is the current offload threshold (window bytes);
	// SketchErrBytes the heavy-hitter sketch's expected overestimate.
	ThresholdBytes, SketchErrBytes uint64
	// FastPkts/SlowPkts and FastBytes/SlowBytes split observed traffic
	// by path; the slow-path share is SlowPkts/(FastPkts+SlowPkts).
	FastPkts, SlowPkts   uint64
	FastBytes, SlowBytes uint64
	// Installs/Demotions count rule-channel operations; QueueDrops
	// install candidates refused by backpressure; StaleSkips queued
	// candidates gone cold before install; TableFull drain passes cut
	// short by a full rule table.
	Installs, Demotions               uint64
	QueueDrops, StaleSkips, TableFull uint64
	// SlowPathDrops counts packets the overloaded host slow path shed;
	// Invalidations flow-cache entries tombstoned on demotion.
	SlowPathDrops, Invalidations uint64
	// SlowQdisc names the scheduler running on the host slow path
	// ("htb", "prio"; empty when the backend has no scheduled slow
	// path). SlowBacklogPkts is its current queued-packet backlog and
	// SlowMaxClassPkts the deepest single class's share of it.
	SlowQdisc                         string
	SlowBacklogPkts, SlowMaxClassPkts int
	// SlowShed counts packets refused at slow-path admission (projected
	// wait past the bound), SlowQueueDrops packets accepted but dropped
	// by a full per-class queue, and SlowReinjected packets the slow
	// path scheduled and handed back to the NIC transmit path.
	// SlowShed + SlowQueueDrops == SlowPathDrops.
	SlowShed, SlowQueueDrops, SlowReinjected uint64
	// Policy names the active threshold policy.
	Policy string
}

// SlowClassStat is one traffic class's slow-path scorecard: the
// per-class backlog and drop split that replaces the single
// DropSlowPath bucket when the slow path runs a real qdisc.
type SlowClassStat struct {
	// Class is the class name in the scheduling tree.
	Class string
	// BacklogPkts is the class's current slow-path queue depth.
	BacklogPkts int
	// Shed counts admission-bound sheds, QueueDrops full-queue drops.
	Shed, QueueDrops uint64
}

// SlowPathReporter is implemented by backends whose slow path schedules
// per class (the NIC model with AttachOffload); harnesses probe for it
// to break slow-path drops down by class.
type SlowPathReporter interface {
	// SlowPathClasses returns one entry per leaf class, in tree order.
	// It returns nil when no scheduled slow path is attached.
	SlowPathClasses() []SlowClassStat
}

// Offloader is implemented by backends with an attached offload control
// plane (the NIC model when AttachOffload was called). Harnesses probe
// for it to report the fast/slow split and rule-channel pressure.
type Offloader interface {
	OffloadStats() OffloadStats
}

// FaultInjectable is implemented by backends that expose fault-injection
// hook points (the NIC model; the software baselines do not — harnesses
// probe and skip them when a fault plan is configured).
type FaultInjectable interface {
	// ApplyFaults registers the backend's hook points (and those of any
	// attached scheduling function) with the injector. The injector's
	// Arm reports an error if a planned fault kind found no target.
	ApplyFaults(inj *faults.Injector) error
}
