// Package htb models the Linux kernel's Hierarchy Token Bucket qdisc as
// the paper's non-offloaded baseline (§II, Fig 3).
//
// The model is a classful borrow/ceil token hierarchy with DRR quanta,
// deliberately reproducing the three kernel behaviours the paper
// documents against it:
//
//  1. Borrowed bandwidth is distributed by quantum (∝ assured rate)
//     regardless of leaf priority — so the KVS/ML priority setting is
//     ignored while both borrow (Fig 3, 15–30s), and a high-priority
//     class with a small assured rate (NC) is not actually prioritized.
//  2. Rate accounting over-credits under sustained load: coarse kernel
//     clocks, timer slack and burst auto-sizing let HTB exceed its
//     configured rates by a roughly constant factor at 10G+ speeds. The
//     net effect is modelled as a calibrated over-credit factor on token
//     refill (default 1.2, reproducing the ≈12Gbps the paper measures
//     against a 10Gbps root ceiling on the 40GbE wire).
//  3. All enqueue/dequeue work funnels through the global qdisc lock,
//     modelled as a single-server CPU stage that both caps packet rate
//     and accrues host CPU cycles.
//
// The class tree is configured with the shared tree package: RateBps is
// the HTB assured rate (also the quantum basis), CeilBps the ceiling.
package htb

import (
	"fmt"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/host"
	"flowvalve/internal/packet"
	"flowvalve/internal/pktq"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
)

// Classify maps a packet to its leaf class; nil means unclassified
// (dropped).
type Classify func(*packet.Packet) *tree.Class

// Callbacks deliver results to the harness; the qdisc shares the
// dataplane's callback shape so harnesses build one set for any backend.
type Callbacks = dataplane.Callbacks

// Config tunes the qdisc model.
type Config struct {
	// LinkRateBps is the egress link the qdisc feeds.
	LinkRateBps float64
	// QueuePkts bounds each leaf FIFO (txqueuelen analogue).
	QueuePkts int
	// GranularityNs is the watchdog timer resolution used when every
	// class is throttled.
	GranularityNs int64
	// OvershootFactor multiplies token refill, modelling the kernel's
	// coarse-clock over-crediting (inaccuracy source 2). 1.0 disables.
	OvershootFactor float64
	// BurstNs sizes token bursts (rate·BurstNs, floored at one MTU) —
	// the kernel's autosized burst of roughly one timer tick.
	BurstNs int64
	// EnqueueCycles and DequeueCycles are charged per packet at the
	// global-lock CPU stage.
	EnqueueCycles int64
	DequeueCycles int64
	// ServiceNsPerPkt is a per-packet service-time floor on the drain,
	// modelling a CPU-bound qdisc: when the pooled host cores need
	// longer to schedule a packet than the wire needs to serialize it,
	// the CPU is the server. 0 keeps the drain purely link-limited (the
	// kernel-baseline behaviour).
	ServiceNsPerPkt float64
	// Host is the CPU model; nil creates the default 8×2.3GHz host.
	Host host.Config
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.LinkRateBps <= 0 {
		c.LinkRateBps = 10e9
	}
	if c.QueuePkts <= 0 {
		c.QueuePkts = 1000
	}
	if c.GranularityNs <= 0 {
		c.GranularityNs = 1_000_000 // 1ms watchdog
	}
	if c.OvershootFactor <= 0 {
		c.OvershootFactor = 1.2 // calibrated to the paper's ≈12G@10G-ceil
	}
	if c.BurstNs <= 0 {
		c.BurstNs = 4_000_000 // ~one 250Hz tick
	}
	if c.EnqueueCycles <= 0 {
		c.EnqueueCycles = 1100 // classify + qdisc lock + enqueue
	}
	if c.DequeueCycles <= 0 {
		c.DequeueCycles = 900
	}
	return c
}

type classState struct {
	tokens  float64 // assured-rate bucket, bytes
	ctokens float64 // ceil bucket, bytes
	lastNs  int64
	deficit float64 // DRR deficit, bytes
	queue   *pktq.FIFO
}

// Stats are cumulative counters.
type Stats struct {
	Enqueued  uint64
	Delivered uint64
	Dropped   uint64
}

// Qdisc is the HTB model instance.
type Qdisc struct {
	eng      *sim.Engine
	cfg      Config
	t        *tree.Tree
	classify Classify
	cb       Callbacks
	cpu      *host.CPU

	states []classState
	leaves []*tree.Class

	wireFreeNs int64
	draining   bool
	nextLeaf   int // DRR cursor
	// tx is the packet on the wire. One transmission is in flight at a
	// time: only its completion drains the next.
	tx *packet.Packet

	stats Stats
	tel   *qdiscTel // attached telemetry (nil when off)
}

// New builds an HTB qdisc over the class tree t.
func New(eng *sim.Engine, cfg Config, t *tree.Tree, classify Classify, cb Callbacks) (*Qdisc, error) {
	if eng == nil || t == nil || classify == nil {
		return nil, fmt.Errorf("htb: nil engine, tree, or classifier")
	}
	cfg = cfg.Defaults()
	q := &Qdisc{
		eng:      eng,
		cfg:      cfg,
		t:        t,
		classify: classify,
		cb:       cb,
		cpu:      host.New(cfg.Host),
		states:   make([]classState, t.Len()),
		leaves:   t.Leaves(),
	}
	now := eng.Now()
	for _, c := range t.Classes() {
		st := &q.states[c.ID]
		st.lastNs = now
		st.tokens = q.burst(c.RateBps)
		st.ctokens = q.burst(q.ceilOf(c))
		if c.Leaf() {
			st.queue = pktq.New(cfg.QueuePkts, 0)
		}
	}
	return q, nil
}

func (q *Qdisc) ceilOf(c *tree.Class) float64 {
	if c.CeilBps > 0 {
		return c.CeilBps
	}
	return c.RateBps
}

func (q *Qdisc) burst(rateBps float64) float64 {
	b := rateBps / 8 * float64(q.cfg.BurstNs) / 1e9
	if b < packet.MaxFrame {
		b = packet.MaxFrame
	}
	return b
}

// Stats returns cumulative counters.
func (q *Qdisc) Stats() Stats { return q.stats }

// CPU returns the host CPU accountant (for cores-used reporting).
func (q *Qdisc) CPU() *host.CPU { return q.cpu }

// Enqueue accepts a packet from an application at the current time.
func (q *Qdisc) Enqueue(p *packet.Packet) {
	q.cpu.Charge(float64(q.cfg.EnqueueCycles))
	if q.tel != nil {
		q.tel.hostCycles.Add(q.cfg.EnqueueCycles)
	}
	leaf := q.classify(p)
	if leaf == nil || !leaf.Leaf() {
		q.drop(p)
		return
	}
	st := &q.states[leaf.ID]
	if !st.queue.TryPush(p) {
		q.drop(p)
		return
	}
	q.stats.Enqueued++
	if q.tel != nil {
		q.tel.enqueued.Add(1)
		q.tel.backlog.Add(1)
	}
	if !q.draining {
		q.draining = true
		q.eng.Schedule(q.eng.Now(), (*drainEvent)(q), 0)
	}
}

// drain pulls the next eligible packet onto the wire and re-arms itself.
func (q *Qdisc) drain() {
	now := q.eng.Now()
	if now < q.wireFreeNs {
		q.eng.Schedule(q.wireFreeNs, (*drainEvent)(q), 0)
		return
	}
	leaf := q.selectLeaf(now)
	if leaf == nil {
		if q.anyBacklog() {
			// All classes throttled: watchdog retry at coarse
			// timer resolution.
			q.eng.Schedule(now+q.cfg.GranularityNs, (*drainEvent)(q), 0)
			return
		}
		q.draining = false
		return
	}
	st := &q.states[leaf.ID]
	p := st.queue.Pop()
	q.cpu.Charge(float64(q.cfg.DequeueCycles))
	if q.tel != nil {
		q.tel.hostCycles.Add(q.cfg.DequeueCycles)
		q.tel.backlog.Add(-1)
	}
	q.chargeTokens(leaf, float64(p.Size))

	txNs := float64(p.WireBytes()*8) / q.cfg.LinkRateBps * 1e9
	if txNs < q.cfg.ServiceNsPerPkt {
		txNs = q.cfg.ServiceNsPerPkt
	}
	q.wireFreeNs = now + int64(txNs)
	q.tx = p
	q.eng.Schedule(q.wireFreeNs, (*txEvent)(q), 0)
}

// The qdisc's DES events are typed (sim.Handler) conversions of the
// qdisc itself, so a packet's transmission schedules no closure.
type (
	// drainEvent runs the drain loop.
	drainEvent Qdisc
	// txEvent delivers q.tx, which finished serializing at the event's
	// time, and drains on.
	txEvent Qdisc
)

func (e *drainEvent) Fire(uint64) { (*Qdisc)(e).drain() }

func (e *txEvent) Fire(uint64) {
	q := (*Qdisc)(e)
	p := q.tx
	q.tx = nil
	p.EgressAt = q.eng.Now()
	q.stats.Delivered++
	if q.tel != nil {
		q.tel.delivered.Add(1)
		q.tel.deliveredBytes.Add(int64(p.Size))
	}
	if q.cb.OnDeliver != nil {
		q.cb.OnDeliver(p)
	}
	q.drain()
}

func (q *Qdisc) anyBacklog() bool {
	for _, leaf := range q.leaves {
		if !q.states[leaf.ID].queue.Empty() {
			return true
		}
	}
	return false
}

// selectLeaf implements the serving decision: strict priority among
// leaves sending within their assured rate, then quantum-weighted DRR
// among borrowers with no regard for priority (kernel behaviour 1).
func (q *Qdisc) selectLeaf(now int64) *tree.Class {
	// Lazy token replenish on every touched class.
	for _, c := range q.t.Classes() {
		q.replenish(c, now)
	}

	// Pass 1: within assured rate, strict priority then FIFO order.
	var best *tree.Class
	for _, leaf := range q.leaves {
		st := &q.states[leaf.ID]
		if st.queue.Empty() {
			continue
		}
		if st.tokens >= float64(st.queue.Peek().Size) && q.ancestorsWithinCeil(leaf) {
			if best == nil || leaf.Prio < best.Prio {
				best = leaf
			}
		}
	}
	if best != nil {
		return best
	}

	// Pass 2: borrowing. Eligible when the leaf is within its ceil and
	// some ancestor still holds assured tokens (and everything on the
	// way is within ceil). Served DRR by quantum, priority ignored.
	n := len(q.leaves)
	for i := 0; i < n; i++ {
		idx := (q.nextLeaf + i) % n
		leaf := q.leaves[idx]
		st := &q.states[leaf.ID]
		if st.queue.Empty() {
			continue
		}
		size := float64(st.queue.Peek().Size)
		if st.ctokens < size || !q.canBorrow(leaf, size) {
			continue
		}
		if st.deficit < size {
			st.deficit += q.quantum(leaf)
			if st.deficit < size {
				continue
			}
		}
		st.deficit -= size
		q.nextLeaf = (idx + 1) % n
		return leaf
	}
	return nil
}

func (q *Qdisc) ancestorsWithinCeil(leaf *tree.Class) bool {
	for c := leaf.Parent; c != nil; c = c.Parent {
		if q.states[c.ID].ctokens < float64(packet.MinFrame) {
			return false
		}
	}
	return true
}

func (q *Qdisc) canBorrow(leaf *tree.Class, size float64) bool {
	for c := leaf.Parent; c != nil; c = c.Parent {
		st := &q.states[c.ID]
		if st.ctokens < size {
			return false
		}
		if st.tokens >= size {
			return true // found a lending ancestor
		}
	}
	return false
}

// quantum is the DRR weight: proportional to the assured rate (the
// kernel's r2q scaling), floored at one MTU.
func (q *Qdisc) quantum(leaf *tree.Class) float64 {
	quantum := leaf.RateBps / 8 / 1000 // r2q ≈ 1000
	if quantum < packet.MaxFrame {
		quantum = packet.MaxFrame
	}
	return quantum
}

// replenish refreshes both buckets with the kernel's over-credit factor
// (behaviour 2).
func (q *Qdisc) replenish(c *tree.Class, now int64) {
	st := &q.states[c.ID]
	dt := now - st.lastNs
	if dt <= 0 {
		return
	}
	st.lastNs = now
	secs := float64(dt) / 1e9 * q.cfg.OvershootFactor
	st.tokens += c.RateBps / 8 * secs
	if maxT := q.burst(c.RateBps); st.tokens > maxT {
		st.tokens = maxT
	}
	ceil := q.ceilOf(c)
	st.ctokens += ceil / 8 * secs
	if maxC := q.burst(ceil); st.ctokens > maxC {
		st.ctokens = maxC
	}
}

// chargeTokens debits the sent bytes along the whole path (leaf to root),
// from both buckets.
func (q *Qdisc) chargeTokens(leaf *tree.Class, size float64) {
	for c := leaf; c != nil; c = c.Parent {
		st := &q.states[c.ID]
		st.tokens -= size
		st.ctokens -= size
	}
}

func (q *Qdisc) drop(p *packet.Packet) {
	q.stats.Dropped++
	if q.tel != nil {
		q.tel.dropped.Add(1)
	}
	if q.cb.OnDrop != nil {
		q.cb.OnDrop(p)
	}
}

// Backlog returns the total queued packets across leaves.
func (q *Qdisc) Backlog() int {
	var n int
	for _, leaf := range q.leaves {
		n += q.states[leaf.ID].queue.Len()
	}
	return n
}

// ClassBacklog returns the packets queued in one leaf class's FIFO (0
// for interior or out-of-range IDs) — the per-class occupancy the
// offload control plane feeds back into its threshold policy.
func (q *Qdisc) ClassBacklog(id tree.ClassID) int {
	if int(id) < 0 || int(id) >= len(q.states) {
		return 0
	}
	st := &q.states[id]
	if st.queue == nil {
		return 0
	}
	return st.queue.Len()
}

// Compile-time capability checks: the HTB baseline is driven through the
// same dataplane.Qdisc interface as the offloaded path.
var (
	_ dataplane.Qdisc          = (*Qdisc)(nil)
	_ dataplane.Backlogger     = (*Qdisc)(nil)
	_ dataplane.HostAccountant = (*Qdisc)(nil)
	_ dataplane.TelemetrySink  = (*Qdisc)(nil)
)

// QdiscStats implements dataplane.Qdisc.
func (q *Qdisc) QdiscStats() dataplane.Stats {
	return dataplane.Stats{
		Enqueued:  q.stats.Enqueued,
		Delivered: q.stats.Delivered,
		Dropped:   q.stats.Dropped,
	}
}

// HostCores implements dataplane.HostAccountant: host CPU cores consumed
// by the qdisc over the run (the non-offloaded baseline's defining cost).
func (q *Qdisc) HostCores(durationNs int64) float64 {
	return q.cpu.CoresUsed(durationNs)
}
