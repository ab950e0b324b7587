package nic

import (
	"fmt"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/host"
	"flowvalve/internal/htb"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
	"flowvalve/internal/pktq"
	"flowvalve/internal/prio"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
)

// Slow-path qdisc kinds accepted by SlowPathConfig.Qdisc.
const (
	SlowQdiscHTB  = "htb"
	SlowQdiscPrio = "prio"
)

// classBacklogger is the optional per-class occupancy probe (the HTB
// backend has it; PRIO reports only band totals).
type classBacklogger interface {
	ClassBacklog(tree.ClassID) int
}

// slowPath is the scheduled host slow path behind the offload control
// plane: a real qdisc (HTB or PRIO) built over the same class tree the
// fast path enforces, so non-offloaded flows are *scheduled* on the
// host — classified into their policy class, queued per class, and
// drained under the host CPU's per-packet service floor — instead of
// merely delayed by a fluid single server. Scheduled packets re-enter
// the NIC transmit path after the PCIe detour; packets whose projected
// wait exceeds the bound are shed at admission, per class.
type slowPath struct {
	eng      *sim.Engine
	cfg      SlowPathConfig
	reinject func(*packet.Packet)

	q      dataplane.Qdisc
	shadow *tree.Tree // rate-annotated mirror of the policy tree
	leaves []*tree.Class
	byCls  classBacklogger // nil when the backend lacks the probe
	cpu    *host.CPU       // the sub-qdisc's accountant

	// serviceNs is the CPU-bound per-packet service floor with every
	// slow-path core pooled; the admission projection multiplies it by
	// the backlog.
	serviceNs float64

	// latch carries the admitted packet's class into the sub-qdisc's
	// classifier: the NIC already resolved the leaf, so the closure
	// just reads the latch (the DES drives admission single-threaded,
	// and the latch is consumed synchronously inside Enqueue).
	latchLeaf *tree.Class
	latchBand int
	// rejected is set by the sub-qdisc's OnDrop during Enqueue — the
	// synchronous full-queue signal admit turns into its return value.
	rejected bool

	// prioBand maps leaf Prio values to dense PRIO band indices
	// (ascending Prio order); nil for the HTB backend.
	prioBand map[int]int

	backlogPkts  int
	backlogBytes int64

	// detour holds scheduled packets crossing back over PCIe. Every
	// detour takes the same DetourNs from a non-decreasing now, so the
	// return events fire in push order and each pops the head.
	detour pktq.FIFO

	admitted   uint64
	shed       uint64 // admission-bound sheds (never enqueued)
	queueDrops uint64 // full per-class queue drops inside the sub-qdisc
	reinjected uint64 // packets scheduled and handed back to the NIC

	// Per-class split, indexed by the policy tree's ClassID (the shadow
	// tree mirrors IDs one-to-one).
	classShed  []uint64
	classDrops []uint64

	// Previous control-tick snapshot for the congestion-signal deltas.
	lastArrivals uint64
	lastDropped  uint64
	lastCycles   float64
	lastSigNs    int64
}

// newSlowPath builds the scheduled slow path over the policy tree t;
// reinject receives scheduled packets after the PCIe detour.
func newSlowPath(eng *sim.Engine, t *tree.Tree, cfg SlowPathConfig, reinject func(*packet.Packet)) (*slowPath, error) {
	if eng == nil || t == nil || reinject == nil {
		return nil, fmt.Errorf("nic: slow path needs an engine, a tree, and a re-injection sink")
	}
	sp := &slowPath{
		eng:        eng,
		cfg:        cfg,
		reinject:   reinject,
		leaves:     t.Leaves(),
		classShed:  make([]uint64, t.Len()),
		classDrops: make([]uint64, t.Len()),
	}
	hc := cfg.Host.Defaults()
	sp.serviceNs = cfg.CyclesPerPkt / (hc.FreqHz * float64(hc.Cores)) * 1e9

	// Split the per-packet budget across the sub-qdisc's two CPU
	// stages, so host cycles accrue where the work happens.
	enq := int64(cfg.CyclesPerPkt * 2 / 5)
	if enq < 1 {
		enq = 1
	}
	deq := int64(cfg.CyclesPerPkt) - enq
	if deq < 1 {
		deq = 1
	}
	cb := dataplane.Callbacks{OnDeliver: sp.onDeliver, OnDrop: sp.onReject}

	switch cfg.Qdisc {
	case SlowQdiscHTB:
		shadow, err := slowShadowTree(t, cfg.ReinjectBps)
		if err != nil {
			return nil, fmt.Errorf("nic: slow-path shadow tree: %w", err)
		}
		sp.shadow = shadow
		q, err := htb.New(eng, htb.Config{
			LinkRateBps: cfg.ReinjectBps,
			QueuePkts:   cfg.QueuePkts,
			// The slow path is our own scheduler, not the kernel
			// baseline: no over-crediting, fine-grained watchdog.
			OvershootFactor: 1.0,
			GranularityNs:   50_000,
			EnqueueCycles:   enq,
			DequeueCycles:   deq,
			ServiceNsPerPkt: sp.serviceNs,
			Host:            cfg.Host,
		}, shadow, func(*packet.Packet) *tree.Class { return sp.latchLeaf }, cb)
		if err != nil {
			return nil, err
		}
		sp.q = q
		sp.byCls = q
		sp.cpu = q.CPU()
	case SlowQdiscPrio:
		// Dense bands in ascending leaf-Prio order.
		sp.prioBand = make(map[int]int)
		for _, leaf := range sp.leaves {
			sp.prioBand[leaf.Prio] = 0
		}
		prios := make([]int, 0, len(sp.prioBand))
		for p := range sp.prioBand {
			prios = append(prios, p)
		}
		for i := 0; i < len(prios); i++ { // insertion sort: tiny n
			for j := i; j > 0 && prios[j] < prios[j-1]; j-- {
				prios[j], prios[j-1] = prios[j-1], prios[j]
			}
		}
		for band, p := range prios {
			sp.prioBand[p] = band
		}
		q, err := prio.New(eng, prio.Config{
			Bands:           len(prios),
			LinkRateBps:     cfg.ReinjectBps,
			QueuePkts:       cfg.QueuePkts,
			EnqueueCycles:   enq,
			DequeueCycles:   deq,
			ServiceNsPerPkt: sp.serviceNs,
			Host:            cfg.Host,
		}, func(*packet.Packet) int { return sp.latchBand }, cb)
		if err != nil {
			return nil, err
		}
		sp.q = q
		sp.cpu = q.CPU()
	default:
		return nil, fmt.Errorf("nic: unknown slow-path qdisc %q (want %q or %q)",
			cfg.Qdisc, SlowQdiscHTB, SlowQdiscPrio)
	}
	return sp, nil
}

// slowShadowTree mirrors the policy tree with concrete per-class token
// rates. Weight-based policies leave RateBps zero on non-root classes —
// the fast path's scheduling function recomputes shares every epoch —
// but the HTB backend replenishes tokens from RateBps directly, so the
// slow path derives a static split (tree.ChildRates under zero measured
// demand) scaled to the re-injection capacity. Every class's ceiling
// opens to the shadow root rate (clamped by any configured ceil) so the
// slow path stays work-conserving across classes, mirroring the mutual
// borrowing the fair-share policies configure. ClassIDs mirror the
// source tree one-to-one (both assign IDs in declaration order).
func slowShadowTree(t *tree.Tree, linkBps float64) (*tree.Tree, error) {
	rootBps := t.Root().RateBps
	if rootBps > linkBps {
		rootBps = linkBps
	}
	rates := make([]float64, t.Len()) // bits/sec by ClassID
	rates[t.Root().ID] = rootBps
	var scratch []float64
	for _, c := range t.Classes() { // ID order: parents precede children
		if c.Leaf() {
			continue
		}
		scratch = tree.ChildRates(c, rates[c.ID]/8,
			func(*tree.Class) float64 { return 0 }, scratch)
		for i, ch := range c.Children {
			rates[ch.ID] = scratch[i] * 8
		}
	}
	b := tree.NewBuilder()
	for _, c := range t.Classes() {
		spec := tree.ClassSpec{
			Name:    c.Name,
			Prio:    c.Prio,
			Weight:  c.Weight,
			RateBps: rates[c.ID],
		}
		if c.Parent != nil {
			spec.Parent = c.Parent.Name
			spec.CeilBps = rootBps
			if c.CeilBps > 0 && c.CeilBps < rootBps {
				spec.CeilBps = c.CeilBps
			}
		}
		b.Add(spec)
	}
	return b.Build()
}

// admit runs slow-path admission for one packet of leaf's class. The
// wait bound is inclusive-serve: a packet whose projected wait equals
// MaxWaitNs exactly is still served; only wait > MaxWaitNs sheds. false
// means the packet was shed (or its class queue was full) and the
// caller owns the drop accounting.
//
//fv:hotpath
func (sp *slowPath) admit(p *packet.Packet, leaf *tree.Class) bool {
	wait := float64(sp.backlogPkts) * sp.serviceNs
	if bw := float64(sp.backlogBytes) * 8 / sp.cfg.ReinjectBps * 1e9; bw > wait {
		wait = bw
	}
	if wait > float64(sp.cfg.MaxWaitNs) {
		sp.shed++
		sp.classShed[leaf.ID]++
		return false
	}
	if sp.shadow != nil {
		sp.latchLeaf = sp.shadow.Class(leaf.ID)
	} else {
		sp.latchBand = sp.prioBand[leaf.Prio]
	}
	sp.rejected = false
	//fv:boxing-ok the slow path runs at host-CPU rate (~100x below line rate); dragging the qdisc simulation into the hot closure buys nothing
	sp.q.Enqueue(p)
	sp.latchLeaf = nil
	if sp.rejected {
		sp.queueDrops++
		sp.classDrops[leaf.ID]++
		return false
	}
	sp.admitted++
	sp.backlogPkts++
	sp.backlogBytes += int64(p.WireBytes())
	return true
}

// onReject is the sub-qdisc's OnDrop callback. It fires synchronously
// inside Enqueue when the packet's class queue is full; admit reads the
// flag and returns ownership to the caller, so the packet is never
// double-accounted.
func (sp *slowPath) onReject(*packet.Packet) { sp.rejected = true }

// onDeliver fires when the sub-qdisc finishes scheduling a packet: the
// host hands it back to the NIC after the PCIe detour (both DMA legs
// are modelled on the return).
func (sp *slowPath) onDeliver(p *packet.Packet) {
	sp.backlogPkts--
	sp.backlogBytes -= int64(p.WireBytes())
	sp.reinjected++
	sp.detour.Push(p)
	sp.eng.Schedule(sp.eng.Now()+sp.cfg.DetourNs, (*detourEvent)(sp), 0)
}

// detourEvent returns the oldest detoured packet to the NIC.
type detourEvent slowPath

func (e *detourEvent) Fire(uint64) {
	sp := (*slowPath)(e)
	sp.reinject(sp.detour.Pop())
}

// signals snapshots the slow path's congestion state for one control
// tick: current backlogs plus shed-rate and host-utilization deltas
// since the previous tick. The controller calls it exactly once per
// tick (offload.SlowPathSignalFunc contract), which is what lets the
// deltas reset in place.
func (sp *slowPath) signals(nowNs int64) offload.SlowPathSignals {
	sig := offload.SlowPathSignals{
		BacklogPkts:  sp.backlogPkts,
		MaxClassPkts: sp.backlogPkts,
		QueueCapPkts: sp.cfg.QueuePkts,
	}
	if sp.byCls != nil {
		sig.MaxClassPkts = 0
		for _, leaf := range sp.leaves {
			if n := sp.byCls.ClassBacklog(leaf.ID); n > sig.MaxClassPkts {
				sig.MaxClassPkts = n
			}
		}
	}
	arrivals := sp.admitted + sp.shed + sp.queueDrops
	dropped := sp.shed + sp.queueDrops
	if da := arrivals - sp.lastArrivals; da > 0 {
		sig.ShedRate = float64(dropped-sp.lastDropped) / float64(da)
	}
	if dt := nowNs - sp.lastSigNs; dt > 0 {
		hc := sp.cpu.Config()
		cyc := sp.cpu.Cycles()
		sig.HostUtil = (cyc - sp.lastCycles) /
			(hc.FreqHz * float64(hc.Cores) * float64(dt) / 1e9)
		sp.lastCycles = cyc
	}
	sp.lastArrivals, sp.lastDropped, sp.lastSigNs = arrivals, dropped, nowNs
	return sig
}

// maxClassBacklog returns the deepest per-class backlog (falls back to
// the total when the backend lacks the per-class probe).
func (sp *slowPath) maxClassBacklog() int {
	if sp.byCls == nil {
		return sp.backlogPkts
	}
	max := 0
	for _, leaf := range sp.leaves {
		if n := sp.byCls.ClassBacklog(leaf.ID); n > max {
			max = n
		}
	}
	return max
}

// classStats returns the per-class slow-path scorecard, in tree order.
func (sp *slowPath) classStats() []dataplane.SlowClassStat {
	out := make([]dataplane.SlowClassStat, 0, len(sp.leaves))
	for _, leaf := range sp.leaves {
		st := dataplane.SlowClassStat{
			Class:      leaf.Name,
			Shed:       sp.classShed[leaf.ID],
			QueueDrops: sp.classDrops[leaf.ID],
		}
		if sp.byCls != nil {
			st.BacklogPkts = sp.byCls.ClassBacklog(leaf.ID)
		}
		out = append(out, st)
	}
	return out
}
