// Package pifo hosts the programmable-scheduler backend family: an
// exact PIFO (the ground-truth priority queue of Sivaraman et al.),
// SP-PIFO's rank-range admission over a bank of strict-priority FIFOs,
// AIFO's and RIFO's single-FIFO sliding-window admission filters, and
// Eiffel's bucketed find-first-set priority queue — plus FlowValve's
// own specialized tail drop re-expressed as a rank function over one
// FIFO, so the paper's scheduler can be compared head-to-head with the
// programmable-scheduling line of work on the same traces.
//
// Every backend speaks both dataplane planes:
//
//   - Qdisc (discrete-event): packets are ranked at Enqueue, held in the
//     backend's queueing structure, and drained to a fixed-rate wire in
//     the backend's dequeue order. This is the plane where scheduling
//     *order* — and therefore rank inversions against the exact-PIFO
//     oracle — is observable.
//
//   - Scheduler (label plane, including ScheduleBatch): an admission-
//     only forwarding decision against a virtual queue drained at the
//     link rate — the same synchronous shape as FlowValve's Algorithm 1,
//     so fvbench-style microbenchmarks and the conformance suite drive
//     all backends through one interface.
//
// What separates the backends is the data structure between those two
// calls; what unifies them is the rank function and the admission
// kernel. A Policy (strict priority, weighted fair virtual start times,
// token-schedule deadlines) maps packets to ranks once, and every
// backend schedules the same rank stream with its own fidelity/cost
// trade-off. A rank commits on admit: the policy's per-sender virtual
// clock advances only for packets the backend admitted. Admission is
// one kernel (bank) on both planes — per-band occupancy, SP-PIFO's band
// mapping, and one of the AIFO/RIFO/fvrank rank filters — charged per
// packet on the Qdisc plane and per byte on the label plane. The exact
// PIFO and Eiffel keep their own Qdisc structures. The experiments
// accuracy lab (internal/experiments) measures the trade-off.
package pifo

import (
	"fmt"

	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
)

// Rank is a scheduling rank in virtual nanoseconds: lower ranks dequeue
// first. Time-shaped ranks let one Rank type express strict priorities
// (constant small ranks), weighted-fair virtual start times, and
// rate-limit deadlines without rescaling per backend.
type Rank int64

// Policy is one scheduling policy expressed as a rank function — the
// compatibility layer every backend shares. A policy is stateful
// (virtual clocks per sender) and belongs to exactly one consumer: the
// DES Qdisc calls PacketRank single-threaded, and the label-plane Sched
// serializes LabelRank under its own lock. One policy instance must not
// be shared between two running backends.
//
// Ranking does not move a sender's virtual clock: it stages the advance,
// and the consumer commits it only when the backend admitted the packet.
// A dropped packet therefore costs its sender no virtual time, so under
// overload the ranks track the admitted rate instead of running away
// from real time. A packet the exact PIFO admits and later evicts
// (drop-worst) is not refunded.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// PacketRank assigns the rank of p at enqueue time nowNs.
	PacketRank(p *packet.Packet, nowNs int64) Rank
	// LabelRank assigns the rank of a size-byte packet carrying QoS
	// label lbl at nowNs — the Scheduler-plane twin of PacketRank.
	LabelRank(lbl *tree.Label, size int, nowNs int64) Rank
	// staged returns the policy's pending virtual-clock advance, which
	// the consumer fetches once and commits after each admission.
	staged() *stage
}

// stage is the virtual-clock advance of the packet a policy ranked last.
type stage struct {
	clock []int64 // the policy's per-slot virtual clock; nil when ranks ignore time
	slot  int
	next  int64
}

// commit applies the staged advance: the packet ranked last was admitted.
//
//fv:hotpath
func (s *stage) commit() {
	if s.clock != nil {
		s.clock[s.slot] = s.next
	}
}

// Policy registry names.
const (
	PolicyPrio     = "prio"
	PolicyWFQ      = "wfq"
	PolicyDeadline = "deadline"
)

// PolicyNames lists the rank-function policies, in registry order.
func PolicyNames() []string {
	return []string{PolicyPrio, PolicyWFQ, PolicyDeadline}
}

// NewPolicy builds the named rank policy over n sender slots sharing a
// baseBps link. Slot weights fall out of the slot index — slot 0 is the
// most favored — matching how the accuracy scenarios assign one app per
// slot:
//
//	prio      rank = slot (constant; strict priority by sender)
//	wfq       virtual start times, weight n-slot (slot 0 heaviest)
//	deadline  token-schedule deadlines at rate w_i/Σw · baseBps
func NewPolicy(name string, n int, baseBps float64) (Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pifo: policy needs at least one slot")
	}
	if baseBps <= 0 {
		return nil, fmt.Errorf("pifo: policy needs a positive base rate")
	}
	switch name {
	case PolicyPrio:
		prios := make([]int, n)
		for i := range prios {
			prios[i] = i
		}
		return NewStrictPriority(prios), nil
	case PolicyWFQ:
		return NewWFQ(slotWeights(n), baseBps), nil
	case PolicyDeadline:
		w := slotWeights(n)
		var sum float64
		for _, x := range w {
			sum += x
		}
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = baseBps * w[i] / sum
		}
		return NewDeadline(rates), nil
	default:
		return nil, fmt.Errorf("pifo: unknown rank policy %q (want prio | wfq | deadline)", name)
	}
}

// slotWeights is the default descending weight vector n, n-1, ..., 1.
func slotWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(n - i)
	}
	return w
}

// slotter maps both rank planes onto dense policy slots. Packets map by
// sender app; labels map by the leaf's position among the tree's leaves
// once BindTree ran, or by raw ClassID before that.
type slotter struct {
	n      int
	byLeaf []int32 // indexed by tree.ClassID; -1 when unmapped
}

func newSlotter(n int) slotter { return slotter{n: n} }

//fv:hotpath
func (s *slotter) packetSlot(p *packet.Packet) int {
	return int(p.App) % s.n
}

//fv:hotpath
func (s *slotter) labelSlot(lbl *tree.Label) int {
	id := int(lbl.Leaf.ID)
	if id < len(s.byLeaf) {
		if slot := s.byLeaf[id]; slot >= 0 {
			return int(slot)
		}
	}
	return id % s.n
}

// bindTree maps the tree's i-th leaf to slot i%n, so label-plane ranks
// line up with the packet-plane app slots of the accuracy scenarios.
func (s *slotter) bindTree(t *tree.Tree) {
	s.byLeaf = make([]int32, t.Len())
	for i := range s.byLeaf {
		s.byLeaf[i] = -1
	}
	for i, leaf := range t.Leaves() {
		s.byLeaf[leaf.ID] = int32(i % s.n)
	}
}

// TreeBinder is implemented by policies whose label plane can be bound
// to a scheduling tree (mapping leaves onto policy slots). Consumers
// probe for it the same way the dataplane probes optional capabilities.
type TreeBinder interface {
	BindTree(t *tree.Tree)
}

// strictPriority ranks every packet with its sender's static priority:
// the PIFO papers' canonical "rank = class" workload. Ranks do not
// depend on time, so an exact PIFO turns it into ideal strict-priority
// scheduling and the approximate backends expose their inversion cost.
type strictPriority struct {
	slots slotter
	prios []Rank
	st    stage
}

// NewStrictPriority builds a strict-priority rank function; prios[i] is
// slot i's rank (lower dequeues first).
func NewStrictPriority(prios []int) Policy {
	p := &strictPriority{slots: newSlotter(len(prios)), prios: make([]Rank, len(prios))}
	for i, v := range prios {
		p.prios[i] = Rank(v)
	}
	return p
}

func (p *strictPriority) Name() string { return PolicyPrio }

//fv:hotpath
func (p *strictPriority) PacketRank(pkt *packet.Packet, nowNs int64) Rank {
	return p.prios[p.slots.packetSlot(pkt)]
}

//fv:hotpath
func (p *strictPriority) LabelRank(lbl *tree.Label, size int, nowNs int64) Rank {
	return p.prios[p.slots.labelSlot(lbl)]
}

func (p *strictPriority) BindTree(t *tree.Tree) { p.slots.bindTree(t) }

func (p *strictPriority) staged() *stage { return &p.st }

// wfq ranks packets with start-time fair queueing virtual timestamps:
// rank = max(now, finish[slot]); finish advances by an admitted
// packet's service time at the slot's weighted share of the base rate.
// Backlogged slots interleave in weighted proportion; idle slots resync
// to now instead of banking credit — the classic SFQ start-time
// discipline.
type wfq struct {
	slots     slotter
	nsPerByte []float64 // virtual service time per byte at the slot's share
	finish    []int64
	st        stage
}

// NewWFQ builds a weighted-fair rank function: slot i receives share
// weights[i]/Σweights of baseBps in virtual time.
func NewWFQ(weights []float64, baseBps float64) Policy {
	n := len(weights)
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	p := &wfq{slots: newSlotter(n), nsPerByte: make([]float64, n), finish: make([]int64, n)}
	p.st.clock = p.finish
	for i, w := range weights {
		if w <= 0 {
			w = 1
		}
		share := baseBps * w / sum
		p.nsPerByte[i] = 8e9 / share
	}
	return p
}

func (p *wfq) Name() string { return PolicyWFQ }

//fv:hotpath
func (p *wfq) rank(slot int, size int64, nowNs int64) Rank {
	start := p.finish[slot]
	if nowNs > start {
		start = nowNs
	}
	p.st.slot, p.st.next = slot, start+int64(float64(size)*p.nsPerByte[slot])
	return Rank(start)
}

//fv:hotpath
func (p *wfq) PacketRank(pkt *packet.Packet, nowNs int64) Rank {
	return p.rank(p.slots.packetSlot(pkt), int64(pkt.Size), nowNs)
}

//fv:hotpath
func (p *wfq) LabelRank(lbl *tree.Label, size int, nowNs int64) Rank {
	return p.rank(p.slots.labelSlot(lbl), int64(size), nowNs)
}

func (p *wfq) BindTree(t *tree.Tree) { p.slots.bindTree(t) }

func (p *wfq) staged() *stage { return &p.st }

// deadline ranks packets with the virtual instant the slot's token
// schedule covers them: deadline += size/θ per admitted packet, floored
// at now when the slot has been under its rate. This mimics FlowValve's
// per-epoch token supply as a rank function — a packet's rank is the
// time by which θ·t tokens suffice to send it, so in-profile traffic
// ranks ≈ now and bursts rank into the future. Combined with the fvrank backend's
// horizon admission it reproduces the paper's specialized tail drop on
// one FIFO (see Config.HorizonNs).
type deadline struct {
	slots     slotter
	nsPerByte []float64 // 8e9/θ_slot
	next      []int64
	st        stage
}

// NewDeadline builds a token-schedule deadline rank function; ratesBps[i]
// is slot i's token rate θ.
func NewDeadline(ratesBps []float64) Policy {
	n := len(ratesBps)
	p := &deadline{slots: newSlotter(n), nsPerByte: make([]float64, n), next: make([]int64, n)}
	p.st.clock = p.next
	for i, r := range ratesBps {
		if r <= 0 {
			r = 1
		}
		p.nsPerByte[i] = 8e9 / r
	}
	return p
}

func (p *deadline) Name() string { return PolicyDeadline }

//fv:hotpath
func (p *deadline) rank(slot int, size int64, nowNs int64) Rank {
	d := p.next[slot]
	if nowNs > d {
		d = nowNs
	}
	d += int64(float64(size) * p.nsPerByte[slot])
	p.st.slot, p.st.next = slot, d
	return Rank(d)
}

//fv:hotpath
func (p *deadline) PacketRank(pkt *packet.Packet, nowNs int64) Rank {
	return p.rank(p.slots.packetSlot(pkt), int64(pkt.Size), nowNs)
}

//fv:hotpath
func (p *deadline) LabelRank(lbl *tree.Label, size int, nowNs int64) Rank {
	return p.rank(p.slots.labelSlot(lbl), int64(size), nowNs)
}

func (p *deadline) BindTree(t *tree.Tree) { p.slots.bindTree(t) }

func (p *deadline) staged() *stage { return &p.st }
