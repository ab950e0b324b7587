// Package packet defines the packet model shared by the NIC simulator,
// the software-scheduler baselines, the TCP flow model, and the traffic
// generators.
//
// A Packet carries only transport-agnostic metadata. QoS labels (the
// class hierarchy path and borrowing permissions computed by the
// classifier) are *not* stored on the packet: on the NP the label lives in
// per-packet buffer metadata that exists only for the duration of the
// run-to-completion worker routine, and the simulation mirrors that by
// passing the label alongside the packet through the pipeline stages.
package packet

import (
	"flowvalve/internal/fvassert"
	"flowvalve/internal/headers"
)

// Sizes of common Ethernet frames, in bytes, including the FCS — the
// convention used by the paper's packet-size sweep (64B..1518B).
const (
	MinFrame = 64
	MaxFrame = 1518

	// WireOverhead is the per-frame on-the-wire overhead that does not
	// appear in the frame itself: 7B preamble + 1B SFD + 12B minimum
	// inter-frame gap + 4B FCS when sizes are quoted without it.
	// FlowValve quotes frame sizes including FCS, so the effective
	// per-packet wire cost is Size + 20; we keep 24 configurable at the
	// wire to match the paper's 3.23Mpps@1518B line-rate figure.
	WireOverhead = 24
)

// FlowID identifies a transport flow (one TCP connection or one generator
// stream). IDs are dense small integers assigned by the scenario builder.
type FlowID uint32

// AppID identifies the sending application/tenant (one virtual function
// port in the paper's SR-IOV setup).
type AppID uint16

// Packet is one frame travelling through the simulated system.
type Packet struct {
	// ID is unique per simulation run, assigned by the allocator.
	ID uint64

	// Flow is the transport flow this packet belongs to.
	Flow FlowID

	// App is the sending application (maps to a virtual function port).
	App AppID

	// Size is the frame length in bytes including FCS.
	Size int

	// Seq is a transport sequence number, used by the TCP model. Zero
	// for open-loop generator traffic.
	Seq uint64

	// Tuple is the packet's on-wire five-tuple; header bytes are
	// synthesized from it when the pipeline's parser runs.
	Tuple headers.FiveTuple

	// SentAt is the virtual time the host handed the packet to the NIC
	// (or qdisc, for software baselines), in nanoseconds.
	SentAt int64

	// EgressAt is the virtual time the packet left on the wire; set by
	// the wire model on delivery. Zero while in flight or dropped.
	EgressAt int64

	// Marked is the ECN-style congestion signal set by the scheduler's
	// mark-on-red extension: the packet was forwarded instead of
	// dropped, and the transport must reduce its rate.
	Marked bool
}

// WireBytes returns the bytes of wire time the packet occupies, including
// preamble, SFD and inter-frame gap. TSO-style super-segments larger than
// MaxFrame pay the per-frame overhead once per wire frame, keeping the
// line-rate arithmetic honest when the TCP model batches segments.
func (p *Packet) WireBytes() int {
	frames := (p.Size + MaxFrame - 1) / MaxFrame
	if frames < 1 {
		frames = 1
	}
	return p.Size + WireOverhead*frames
}

// Alloc allocates packets with unique IDs and recycles them. The zero
// value is ready to use. Alloc is not safe for concurrent use; the DES is
// single-threaded and the wall-clock benchmarks use one Alloc per
// goroutine.
//
// Packet lifetime: a packet lives from New until the OnDeliver or OnDrop
// callback of the qdisc it was handed to. That callback is its last use —
// no component keeps a reference past it — so the harness that owns the
// Alloc may return the packet with Free at the end of the callback, and
// New hands the memory out again with a fresh ID. A harness that never
// calls Free simply leaves its packets to the garbage collector.
type Alloc struct {
	next uint64
	free []*Packet
	// slab is the unused tail of the last chunk carved on a free-list
	// miss: packets are allocated slabLen at a time, so a run's
	// working set costs a handful of allocations, not one per packet.
	slab []Packet

	// quar is the fvassert builds' quarantine: freed packets stay
	// poisoned here for quarantineLen further frees before they are
	// reused, so a stale reference that touches one within that window
	// is caught (Poisoned) instead of reading a recycled packet.
	quar  []*Packet
	qhead int
}

// slabLen is how many packets one free-list miss allocates at once.
const slabLen = 64

// quarantineLen is how many frees a poisoned packet outlives before the
// fvassert build recycles it.
const quarantineLen = 4096

// poisonSize marks a freed packet under fvassert: no live frame has a
// negative size.
const poisonSize = -0xdead

// New returns a packet with the given identity fields, a unique ID, a
// deterministic five-tuple, and SentAt stamped to now. It reuses a freed
// packet when one is available and allocates only on a free-list miss,
// slabLen packets at a time.
func (a *Alloc) New(flow FlowID, app AppID, size int, now int64) *Packet {
	a.next++
	var p *Packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if len(a.slab) == 0 {
			a.slab = make([]Packet, slabLen)
		}
		p = &a.slab[0]
		a.slab = a.slab[1:]
	}
	*p = Packet{
		ID:     a.next,
		Flow:   flow,
		App:    app,
		Size:   size,
		Tuple:  TupleFor(app, flow),
		SentAt: now,
	}
	return p
}

// Free returns p to the allocator after its last use (see Alloc). Under
// the fvassert build tag Free poisons p, fails on a double free, and
// quarantines p before reuse.
func (a *Alloc) Free(p *Packet) {
	if fvassert.Enabled {
		if Poisoned(p) {
			fvassert.Failf("packet: double Free of packet %d", p.ID)
		}
		*p = Packet{ID: p.ID, Size: poisonSize}
		if len(a.quar) < quarantineLen {
			a.quar = append(a.quar, p)
			return
		}
		p, a.quar[a.qhead] = a.quar[a.qhead], p
		a.qhead = (a.qhead + 1) % quarantineLen
	}
	a.free = append(a.free, p)
}

// Poisoned reports whether p has been freed (fvassert builds only; it is
// always false otherwise, since Free poisons nothing there). Components
// check it at the points a packet enters them, behind fvassert.Enabled.
func Poisoned(p *Packet) bool { return p.Size == poisonSize }

// TupleFor derives the canonical five-tuple of a flow: each app is a /24
// source subnet with its own service port (5201+app, iperf3-style
// parallel servers), flows take distinct host addresses and source
// ports, and everything targets the measurement sink at 10.99.0.1.
func TupleFor(app AppID, flow FlowID) headers.FiveTuple {
	return headers.FiveTuple{
		SrcIP:   0x0a000000 | uint32(app)<<8 | (uint32(flow)%250 + 1),
		DstIP:   0x0a630001,
		SrcPort: 33000 + uint16(flow%32000),
		DstPort: 5201 + uint16(app%100),
		Proto:   headers.ProtoTCP,
	}
}
