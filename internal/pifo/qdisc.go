package pifo

import (
	"fmt"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvassert"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// Qdisc is the discrete-event face of one pifo-family backend: packets
// are ranked by the policy at Enqueue, held in the backend's queueing
// structure, and drained to a fixed-rate wire in the backend's order.
// It implements the same dataplane contract as the NIC model and the
// kernel baselines, so every experiment harness can drive the whole
// family unchanged.
type Qdisc struct {
	eng *sim.Engine
	cfg Config
	pol Policy
	st  *stage // pol's staged virtual-clock advance
	cb  dataplane.Callbacks
	rq  rankQueue

	seq        uint64
	wireFreeNs int64
	wireFracNs float64 // sub-ns remainder of the wire times sent so far
	draining   bool

	stats      dataplane.Stats
	inversions uint64

	tel *qdiscTel
}

// NewQdisc builds a backend instance. The policy instance must be
// exclusive to this Qdisc (policies carry virtual-clock state).
func NewQdisc(eng *sim.Engine, cfg Config, pol Policy, cb dataplane.Callbacks) (*Qdisc, error) {
	if eng == nil || pol == nil {
		return nil, fmt.Errorf("pifo: nil engine or policy")
	}
	cfg.Defaults()
	q := &Qdisc{eng: eng, cfg: cfg, pol: pol, st: pol.staged(), cb: cb}
	rq, err := newQueue(&cfg)
	if err != nil {
		return nil, err
	}
	q.rq = rq
	return q, nil
}

// Backend returns the registry name of the queueing structure.
func (q *Qdisc) Backend() string { return q.cfg.Backend }

// Inversions counts dequeues that overtook a better-ranked co-resident
// packet: after popping an entry, a strictly lower rank was still
// queued. The exact PIFO's count is zero by the heap property — the
// approximate backends pay their structure's scheduling error here.
// (The check inspects only the structure's next-best entry, so it is a
// cheap O(1) lower bound on the full pairwise inversion count.)
func (q *Qdisc) Inversions() uint64 { return q.inversions }

// QueueStats exposes the structure's admission/adaptation counters.
func (q *Qdisc) QueueStats() QueueStats { return *q.rq.stats() }

// Enqueue ranks and admits one packet at the current simulation time;
// the policy's virtual clock advances only if the packet is admitted.
func (q *Qdisc) Enqueue(p *packet.Packet) {
	now := q.eng.Now()
	r := q.pol.PacketRank(p, now)
	e := entry{rank: r, seq: q.seq, pkt: p}
	q.seq++
	evicted, admitted := q.rq.push(e, now)
	if evicted.pkt != nil {
		// A queued packet lost its slot to a better-ranked arrival
		// (exact-PIFO drop-worst). It was counted Enqueued when it was
		// admitted; account the drop now.
		q.stats.Dropped++
		q.tel.drop(dropEvict)
		if q.cb.OnDrop != nil {
			q.cb.OnDrop(evicted.pkt)
		}
	}
	if !admitted {
		q.stats.Dropped++
		q.tel.drop(dropRank)
		if q.cb.OnDrop != nil {
			q.cb.OnDrop(p)
		}
		return
	}
	q.st.commit()
	q.stats.Enqueued++
	q.tel.enq()
	if !q.draining {
		q.draining = true
		q.eng.After(0, q.drain)
	}
}

// drain transmits the backend's best-ranked packet whenever the wire is
// free, exactly like the PRIO and DPDK baselines' service loops.
func (q *Qdisc) drain() {
	now := q.eng.Now()
	if now < q.wireFreeNs {
		q.eng.At(q.wireFreeNs, q.drain)
		return
	}
	e, ok := q.rq.pop()
	if !ok {
		q.draining = false
		return
	}
	if fvassert.Enabled && e.pkt == nil {
		fvassert.Failf("pifo: %s popped entry without a packet", q.cfg.Backend)
	}
	if next, ok := q.rq.peek(); ok && next.rank < e.rank {
		q.inversions++
		q.tel.inversion()
		if q.cfg.Backend == BackendPIFO && fvassert.Enabled {
			fvassert.Failf("pifo: exact oracle dequeued rank %d over queued rank %d", e.rank, next.rank)
		}
	}
	// Carry the sub-nanosecond remainder so the wire holds its line
	// rate when a frame's time is not a whole number of nanoseconds.
	tx := float64(e.pkt.WireBytes()*8)/q.cfg.LinkRateBps*1e9 + q.wireFracNs
	txNs := int64(tx)
	q.wireFracNs = tx - float64(txNs)
	q.wireFreeNs = now + txNs
	done := q.wireFreeNs
	q.eng.At(done, func() {
		q.deliver(e, done)
		q.drain()
	})
}

// deliver finishes one transmission: stats, rank-trace tap, harness
// callback.
func (q *Qdisc) deliver(e entry, done int64) {
	e.pkt.EgressAt = done
	q.stats.Delivered++
	q.tel.deliver(e.pkt.WireBytes())
	if q.cfg.OnDequeue != nil {
		q.cfg.OnDequeue(e.pkt, e.rank)
	}
	if q.cb.OnDeliver != nil {
		q.cb.OnDeliver(e.pkt)
	}
}

// Backlog implements dataplane.Backlogger.
func (q *Qdisc) Backlog() int { return q.rq.len() }

// QdiscStats implements dataplane.Qdisc.
func (q *Qdisc) QdiscStats() dataplane.Stats { return q.stats }

// Compile-time capability checks; like the kernel baselines the family
// is driven through interface probes, never concrete types.
var (
	_ dataplane.Qdisc         = (*Qdisc)(nil)
	_ dataplane.Backlogger    = (*Qdisc)(nil)
	_ dataplane.TelemetrySink = (*Qdisc)(nil)
)
