// Package prio models the Linux PRIO qdisc: a classless set of strict-
// priority FIFO bands drained to a fixed-rate link behind the global
// qdisc lock. It is the second kernel scheduler FlowValve offloads and is
// used standalone in tests and in delay comparisons.
package prio

import (
	"fmt"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/host"
	"flowvalve/internal/packet"
	"flowvalve/internal/pktq"
	"flowvalve/internal/sim"
)

// Classify maps a packet to a band index (0 = highest priority). Out of
// range means drop.
type Classify func(*packet.Packet) int

// Callbacks deliver results to the harness; the qdisc shares the
// dataplane's callback shape so harnesses build one set for any backend.
type Callbacks = dataplane.Callbacks

// Config tunes the qdisc.
type Config struct {
	// Bands is the number of priority bands (tc default 3).
	Bands int
	// LinkRateBps is the egress link rate.
	LinkRateBps float64
	// QueuePkts bounds each band FIFO.
	QueuePkts int
	// EnqueueCycles and DequeueCycles are charged per packet at the
	// global-lock CPU stage.
	EnqueueCycles int64
	DequeueCycles int64
	// ServiceNsPerPkt is a per-packet service-time floor on the drain,
	// modelling a CPU-bound qdisc (see htb.Config.ServiceNsPerPkt). 0
	// keeps the drain purely link-limited.
	ServiceNsPerPkt float64
	// Host is the CPU model.
	Host host.Config
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Bands <= 0 {
		c.Bands = 3
	}
	if c.LinkRateBps <= 0 {
		c.LinkRateBps = 10e9
	}
	if c.QueuePkts <= 0 {
		c.QueuePkts = 1000
	}
	if c.EnqueueCycles <= 0 {
		c.EnqueueCycles = 800
	}
	if c.DequeueCycles <= 0 {
		c.DequeueCycles = 600
	}
	return c
}

// Stats are cumulative counters.
type Stats struct {
	Enqueued  uint64
	Delivered uint64
	Dropped   uint64
}

// Qdisc is a PRIO instance.
type Qdisc struct {
	eng      *sim.Engine
	cfg      Config
	classify Classify
	cb       Callbacks
	cpu      *host.CPU

	bands      []*pktq.FIFO
	wireFreeNs int64
	draining   bool
	// tx is the packet on the wire. One transmission is in flight at a
	// time: only its completion drains the next.
	tx *packet.Packet

	stats Stats
}

// New builds a PRIO qdisc.
func New(eng *sim.Engine, cfg Config, classify Classify, cb Callbacks) (*Qdisc, error) {
	if eng == nil || classify == nil {
		return nil, fmt.Errorf("prio: nil engine or classifier")
	}
	cfg = cfg.Defaults()
	q := &Qdisc{
		eng:      eng,
		cfg:      cfg,
		classify: classify,
		cb:       cb,
		cpu:      host.New(cfg.Host),
		bands:    make([]*pktq.FIFO, cfg.Bands),
	}
	for i := range q.bands {
		q.bands[i] = pktq.New(cfg.QueuePkts, 0)
	}
	return q, nil
}

// Stats returns cumulative counters.
func (q *Qdisc) Stats() Stats { return q.stats }

// CPU returns the host CPU accountant.
func (q *Qdisc) CPU() *host.CPU { return q.cpu }

// Enqueue accepts a packet at the current time.
func (q *Qdisc) Enqueue(p *packet.Packet) {
	q.cpu.Charge(float64(q.cfg.EnqueueCycles))
	band := q.classify(p)
	if band < 0 || band >= len(q.bands) || !q.bands[band].TryPush(p) {
		q.stats.Dropped++
		if q.cb.OnDrop != nil {
			q.cb.OnDrop(p)
		}
		return
	}
	q.stats.Enqueued++
	if !q.draining {
		q.draining = true
		q.eng.Schedule(q.eng.Now(), (*drainEvent)(q), 0)
	}
}

func (q *Qdisc) drain() {
	now := q.eng.Now()
	if now < q.wireFreeNs {
		q.eng.Schedule(q.wireFreeNs, (*drainEvent)(q), 0)
		return
	}
	var p *packet.Packet
	for _, band := range q.bands {
		if p = band.Pop(); p != nil {
			break
		}
	}
	if p == nil {
		q.draining = false
		return
	}
	q.cpu.Charge(float64(q.cfg.DequeueCycles))
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
	if q.cb.OnDeliver != nil {
		q.cb.OnDeliver(p)
	}
	q.drain()
}

// Backlog returns total queued packets.
func (q *Qdisc) Backlog() int {
	var n int
	for _, band := range q.bands {
		n += band.Len()
	}
	return n
}

// Compile-time capability checks: PRIO is driven through the same
// dataplane.Qdisc interface as the other backends. (It deliberately has
// no TelemetrySink — the probe's absence exercises optional discovery.)
var (
	_ dataplane.Qdisc          = (*Qdisc)(nil)
	_ dataplane.Backlogger     = (*Qdisc)(nil)
	_ dataplane.HostAccountant = (*Qdisc)(nil)
)

// QdiscStats implements dataplane.Qdisc.
func (q *Qdisc) QdiscStats() dataplane.Stats {
	return dataplane.Stats{
		Enqueued:  q.stats.Enqueued,
		Delivered: q.stats.Delivered,
		Dropped:   q.stats.Dropped,
	}
}

// HostCores implements dataplane.HostAccountant.
func (q *Qdisc) HostCores(durationNs int64) float64 {
	return q.cpu.CoresUsed(durationNs)
}
