// Package tcp models TCP senders as AIMD (Reno-style) congestion-control
// loops driven by the discrete-event engine. The paper's evaluation uses
// iperf3/mTCP TCP traffic; the figures' shapes (flows converging onto the
// scheduler-enforced shares) come from TCP reacting to the specialized
// tail drop, which is exactly the feedback loop reproduced here: a
// window-limited sender, ACK clocking with a configurable base RTT,
// multiplicative decrease at most once per flight on loss, and slow
// start / congestion avoidance growth.
//
// Segment sizes are configurable: behaviour experiments use TSO-style
// super-segments (the host kernel hands the NIC 16–64KB segments; all
// FlowValve token math is byte-denominated, so shares are unchanged while
// the event count drops by an order of magnitude), and packet-rate
// experiments use wire-sized frames.
package tcp

import (
	"fmt"

	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// Config tunes a flow. Zero fields take defaults.
type Config struct {
	// SegBytes is the segment (frame) size handed to the NIC.
	SegBytes int
	// BaseRTTNs is the path round-trip time excluding NIC/qdisc
	// queueing (propagation + receiver turnaround).
	BaseRTTNs int64
	// InitCwnd is the initial congestion window in segments.
	InitCwnd float64
	// MaxCwnd caps the window in segments (receiver window stand-in).
	MaxCwnd float64
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.SegBytes <= 0 {
		c.SegBytes = 1518
	}
	if c.BaseRTTNs <= 0 {
		c.BaseRTTNs = 200_000 // 200µs datacenter-ish RTT
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = 10
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = 1 << 20
	}
	return c
}

// Flow is one TCP connection.
type Flow struct {
	id   packet.FlowID
	app  packet.AppID
	cfg  Config
	eng  *sim.Engine
	pkts *packet.Alloc
	send func(*packet.Packet)

	running  bool
	cwnd     float64
	ssthresh float64
	inflight int
	nextSeq  uint64
	// recoverSeq implements "one multiplicative decrease per flight":
	// losses of packets sent before this sequence are part of an
	// already-handled congestion event.
	recoverSeq uint64

	// Cumulative counters.
	sentPkts  uint64
	acked     uint64
	lost      uint64
	marked    uint64
	ackedByte uint64
}

// NewFlow builds a flow that injects packets via send. The allocator may
// be shared across flows (the DES is single-threaded).
func NewFlow(eng *sim.Engine, pkts *packet.Alloc, id packet.FlowID, app packet.AppID, cfg Config, send func(*packet.Packet)) (*Flow, error) {
	if eng == nil || pkts == nil || send == nil {
		return nil, fmt.Errorf("tcp: nil engine, allocator, or send function")
	}
	cfg = cfg.Defaults()
	return &Flow{
		id:       id,
		app:      app,
		cfg:      cfg,
		eng:      eng,
		pkts:     pkts,
		send:     send,
		cwnd:     cfg.InitCwnd,
		ssthresh: cfg.MaxCwnd,
	}, nil
}

// ID returns the flow identifier.
func (f *Flow) ID() packet.FlowID { return f.id }

// App returns the owning application.
func (f *Flow) App() packet.AppID { return f.app }

// StartAt schedules the flow to begin sending at atNs.
func (f *Flow) StartAt(atNs int64) {
	f.eng.At(atNs, func() {
		if f.running {
			return
		}
		f.running = true
		// Restart from slow start if the flow was previously stopped.
		f.cwnd = f.cfg.InitCwnd
		f.ssthresh = f.cfg.MaxCwnd
		f.pump()
	})
}

// StopAt schedules the flow to cease sending at atNs; in-flight segments
// drain normally.
func (f *Flow) StopAt(atNs int64) {
	f.eng.At(atNs, func() { f.running = false })
}

// pump sends while the window allows.
func (f *Flow) pump() {
	for f.running && float64(f.inflight) < f.cwnd {
		p := f.pkts.New(f.id, f.app, f.cfg.SegBytes, f.eng.Now())
		f.nextSeq++
		p.Seq = f.nextSeq
		f.inflight++
		f.sentPkts++
		f.send(p)
	}
}

// OnDelivered must be called when a segment of this flow finishes wire
// egress; the ACK returns after the remaining path RTT. The ACK event
// carries the segment's sequence and congestion mark, not the packet, so
// the caller may free p as soon as OnDelivered returns.
func (f *Flow) OnDelivered(p *packet.Packet) {
	f.eng.Schedule(f.eng.Now()+f.cfg.BaseRTTNs/2, (*ackEvent)(f), segArg(p))
}

// segArg packs what the ACK and loss events need of a segment: its
// sequence number and (low bit) its congestion mark. Every segment the
// flow sends is SegBytes long.
func segArg(p *packet.Packet) uint64 {
	arg := p.Seq << 1
	if p.Marked {
		arg |= 1
	}
	return arg
}

// The flow's DES events are typed (sim.Handler) conversions of the flow
// itself; the argument is segArg of the segment.
type (
	ackEvent  Flow
	lossEvent Flow
)

func (e *ackEvent) Fire(arg uint64)  { (*Flow)(e).onAck(arg>>1, arg&1 != 0) }
func (e *lossEvent) Fire(arg uint64) { (*Flow)(e).onLoss(arg >> 1) }

func (f *Flow) onAck(seq uint64, marked bool) {
	f.inflight--
	if f.inflight < 0 {
		f.inflight = 0
	}
	f.acked++
	f.ackedByte += uint64(f.cfg.SegBytes)
	if marked {
		// ECN echo: multiplicative decrease, once per flight, without
		// the retransmission gap a loss would cost.
		f.marked++
		if seq > f.recoverSeq {
			f.cwnd = f.cwnd / 2
			if f.cwnd < 1 {
				f.cwnd = 1
			}
			f.ssthresh = f.cwnd
			f.recoverSeq = f.nextSeq
		}
		f.pump()
		return
	}
	if f.cwnd < f.ssthresh {
		f.cwnd++ // slow start
	} else {
		f.cwnd += 1 / f.cwnd // congestion avoidance
	}
	if f.cwnd > f.cfg.MaxCwnd {
		f.cwnd = f.cfg.MaxCwnd
	}
	f.pump()
}

// OnDropped must be called when a segment of this flow is discarded.
// Loss detection (duplicate ACKs) takes about one RTT; the reaction is a
// single multiplicative decrease per flight.
func (f *Flow) OnDropped(p *packet.Packet) {
	f.eng.Schedule(f.eng.Now()+f.cfg.BaseRTTNs, (*lossEvent)(f), segArg(p))
}

func (f *Flow) onLoss(seq uint64) {
	f.inflight--
	if f.inflight < 0 {
		f.inflight = 0
	}
	f.lost++
	if seq > f.recoverSeq {
		f.cwnd = f.cwnd / 2
		if f.cwnd < 1 {
			f.cwnd = 1
		}
		f.ssthresh = f.cwnd
		f.recoverSeq = f.nextSeq
	}
	f.pump()
}

// Cwnd returns the current congestion window in segments.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// Counters returns (sent, acked, lost) segment counts.
func (f *Flow) Counters() (sent, acked, lost uint64) {
	return f.sentPkts, f.acked, f.lost
}

// Marked returns the count of congestion-marked segments the flow has
// reacted to (the scheduler's ECN extension).
func (f *Flow) Marked() uint64 { return f.marked }
