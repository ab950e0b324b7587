// Package trafficgen provides open-loop packet sources for the stress
// experiments: constant-bit-rate streams, fixed-size full-speed injectors
// (the Fig 13 packet-size sweep), and on/off staged sources. Unlike the
// TCP model these sources do not react to drops — they emulate the
// paper's "inject fixed-length packets at full speed" methodology.
package trafficgen

import (
	"fmt"
	"math"

	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// CBR emits fixed-size packets at a constant bit rate between start and
// stop times.
type CBR struct {
	eng  *sim.Engine
	pkts *packet.Alloc
	send func(*packet.Packet)

	flow packet.FlowID
	app  packet.AppID
	size int

	intervalNs int64
	stopNs     int64
	running    bool

	// Sent counts emitted packets.
	Sent uint64
}

// NewCBR builds a source sending `size`-byte packets at rateBps
// (wire-frame bits, including the frame itself but not preamble/IFG) from
// startNs to stopNs. A stopNs of 0 means "never stop".
func NewCBR(eng *sim.Engine, pkts *packet.Alloc, flow packet.FlowID, app packet.AppID, size int, rateBps float64, startNs, stopNs int64, send func(*packet.Packet)) (*CBR, error) {
	if eng == nil || pkts == nil || send == nil {
		return nil, fmt.Errorf("trafficgen: nil engine, allocator, or send function")
	}
	if size <= 0 || rateBps <= 0 {
		return nil, fmt.Errorf("trafficgen: non-positive size or rate")
	}
	g := &CBR{
		eng:        eng,
		pkts:       pkts,
		send:       send,
		flow:       flow,
		app:        app,
		size:       size,
		intervalNs: int64(float64(size*8) / rateBps * 1e9),
		stopNs:     stopNs,
	}
	if g.intervalNs < 1 {
		g.intervalNs = 1
	}
	eng.At(startNs, func() {
		g.running = true
		g.emit()
	})
	return g, nil
}

func (g *CBR) emit() {
	if !g.running {
		return
	}
	now := g.eng.Now()
	if g.stopNs > 0 && now >= g.stopNs {
		g.running = false
		return
	}
	p := g.pkts.New(g.flow, g.app, g.size, now)
	g.Sent++
	g.send(p)
	g.eng.Schedule(now+g.intervalNs, (*cbrTick)(g), 0)
}

// Stop halts the source at the given virtual time.
func (g *CBR) Stop(atNs int64) {
	g.eng.At(atNs, func() { g.running = false })
}

// Saturator emits fixed-size packets as fast as the target accepts them,
// gated by a credit callback so injection tracks the device's drain rate
// instead of flooding the event queue. It models a DPDK pktgen pushing
// line rate into the NIC.
type Saturator struct {
	eng  *sim.Engine
	pkts *packet.Alloc
	send func(*packet.Packet)

	flows []packet.FlowID
	app   packet.AppID
	size  int
	next  int

	intervalNs int64
	stopNs     int64

	// Sent counts emitted packets.
	Sent uint64
}

// NewSaturator builds a full-speed source spraying `size`-byte packets
// round-robin over the given flow IDs at offeredBps (set slightly above
// the device capacity under test), from startNs to stopNs.
func NewSaturator(eng *sim.Engine, pkts *packet.Alloc, flows []packet.FlowID, app packet.AppID, size int, offeredBps float64, startNs, stopNs int64, send func(*packet.Packet)) (*Saturator, error) {
	if eng == nil || pkts == nil || send == nil {
		return nil, fmt.Errorf("trafficgen: nil engine, allocator, or send function")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("trafficgen: saturator needs at least one flow")
	}
	if size <= 0 || offeredBps <= 0 {
		return nil, fmt.Errorf("trafficgen: non-positive size or rate")
	}
	s := &Saturator{
		eng:        eng,
		pkts:       pkts,
		send:       send,
		flows:      flows,
		app:        app,
		size:       size,
		intervalNs: int64(float64(size*8) / offeredBps * 1e9),
		stopNs:     stopNs,
	}
	if s.intervalNs < 1 {
		s.intervalNs = 1
	}
	eng.Schedule(startNs, (*saturatorTick)(s), 0)
	return s, nil
}

func (s *Saturator) emit() {
	now := s.eng.Now()
	if s.stopNs > 0 && now >= s.stopNs {
		return
	}
	p := s.pkts.New(s.flows[s.next], s.app, s.size, now)
	s.next = (s.next + 1) % len(s.flows)
	s.Sent++
	s.send(p)
	s.eng.Schedule(now+s.intervalNs, (*saturatorTick)(s), 0)
}

// OnOff emits fixed-size packets at peakBps during exponentially
// distributed ON periods separated by exponentially distributed OFF
// periods — the classic bursty source. The long-run average rate is
// peakBps · meanOn/(meanOn+meanOff).
type OnOff struct {
	eng  *sim.Engine
	pkts *packet.Alloc
	send func(*packet.Packet)
	rng  *sim.RNG

	flow packet.FlowID
	app  packet.AppID
	size int

	intervalNs float64
	meanOnNs   float64
	meanOffNs  float64
	stopNs     int64

	on      bool
	phaseNs int64 // current phase ends at this instant

	// Sent counts emitted packets.
	Sent uint64
}

// NewOnOff builds a bursty source. seed drives the phase lengths
// deterministically.
func NewOnOff(eng *sim.Engine, pkts *packet.Alloc, flow packet.FlowID, app packet.AppID,
	size int, peakBps float64, meanOnNs, meanOffNs float64,
	startNs, stopNs int64, seed uint64, send func(*packet.Packet)) (*OnOff, error) {
	if eng == nil || pkts == nil || send == nil {
		return nil, fmt.Errorf("trafficgen: nil engine, allocator, or send function")
	}
	if size <= 0 || peakBps <= 0 || meanOnNs <= 0 || meanOffNs < 0 {
		return nil, fmt.Errorf("trafficgen: non-positive on/off parameters")
	}
	g := &OnOff{
		eng:        eng,
		pkts:       pkts,
		send:       send,
		rng:        sim.NewRNG(seed),
		flow:       flow,
		app:        app,
		size:       size,
		intervalNs: float64(size*8) / peakBps * 1e9,
		meanOnNs:   meanOnNs,
		meanOffNs:  meanOffNs,
		stopNs:     stopNs,
	}
	eng.Schedule(startNs, (*onOffToggle)(g), 0)
	return g, nil
}

func (g *OnOff) togglePhase() {
	now := g.eng.Now()
	if g.stopNs > 0 && now >= g.stopNs {
		return
	}
	g.on = !g.on
	var phase float64
	if g.on {
		phase = g.rng.Exp(g.meanOnNs)
	} else {
		phase = g.rng.Exp(g.meanOffNs)
	}
	if phase < 1 {
		phase = 1
	}
	g.phaseNs = now + int64(phase)
	if g.on {
		g.emit()
	}
	g.eng.Schedule(g.phaseNs, (*onOffToggle)(g), 0)
}

func (g *OnOff) emit() {
	now := g.eng.Now()
	if !g.on || now >= g.phaseNs || (g.stopNs > 0 && now >= g.stopNs) {
		return
	}
	g.Sent++
	g.send(g.pkts.New(g.flow, g.app, g.size, now))
	gap := int64(g.intervalNs)
	if gap < 1 {
		gap = 1
	}
	g.eng.Schedule(now+gap, (*onOffTick)(g), 0)
}

// Churn emits a stream of short-lived "mouse" flows: new flows arrive as
// a Poisson process, each sends a geometrically-flavoured handful of
// fixed-size packets at a fixed per-packet gap, and flow IDs increment
// from a base so every arrival is a brand-new connection. This is the
// connection-churn load that stresses an offload control plane's
// rule-insertion budget — lots of new flows, none worth offloading.
type Churn struct {
	eng  *sim.Engine
	pkts *packet.Alloc
	send func(*packet.Packet)
	rng  *sim.RNG

	app  packet.AppID
	size int

	nextFlow   packet.FlowID
	interArrNs float64
	meanPkts   float64
	gapNs      int64
	stopNs     int64

	// Sent counts emitted packets; Flows started flows.
	Sent  uint64
	Flows uint64
}

// NewChurn builds a churn source on app: flowsPerSec new flows (Poisson
// arrivals), each sending on average meanPkts `size`-byte packets spaced
// gapNs apart, with flow IDs counting up from baseFlow. seed drives the
// arrival process deterministically.
func NewChurn(eng *sim.Engine, pkts *packet.Alloc, app packet.AppID, size int,
	flowsPerSec, meanPkts float64, gapNs int64, baseFlow packet.FlowID,
	startNs, stopNs int64, seed uint64, send func(*packet.Packet)) (*Churn, error) {
	if eng == nil || pkts == nil || send == nil {
		return nil, fmt.Errorf("trafficgen: nil engine, allocator, or send function")
	}
	if size <= 0 || flowsPerSec <= 0 || meanPkts < 1 {
		return nil, fmt.Errorf("trafficgen: non-positive churn parameters")
	}
	if gapNs < 1 {
		gapNs = 1
	}
	g := &Churn{
		eng:        eng,
		pkts:       pkts,
		send:       send,
		rng:        sim.NewRNG(seed),
		app:        app,
		size:       size,
		nextFlow:   baseFlow,
		interArrNs: 1e9 / flowsPerSec,
		meanPkts:   meanPkts,
		gapNs:      gapNs,
		stopNs:     stopNs,
	}
	eng.Schedule(startNs, (*churnArrival)(g), 0)
	return g, nil
}

// arrive starts one new flow and schedules the next arrival.
func (g *Churn) arrive() {
	now := g.eng.Now()
	if g.stopNs > 0 && now >= g.stopNs {
		return
	}
	flow := g.nextFlow
	g.nextFlow++
	g.Flows++
	// Packet count: 1 + an exponential tail around the mean, the
	// heavy-ish short-flow distribution of connection setups.
	n := 1
	if g.meanPkts > 1 {
		n += int(g.rng.Exp(g.meanPkts - 1))
	}
	g.emitFlow(flow, n)
	next := g.rng.Exp(g.interArrNs)
	if next < 1 {
		next = 1
	}
	g.eng.Schedule(now+int64(next), (*churnArrival)(g), 0)
}

// emitFlow sends one packet of flow and re-arms for the remainder.
func (g *Churn) emitFlow(flow packet.FlowID, remaining int) {
	now := g.eng.Now()
	if remaining <= 0 || (g.stopNs > 0 && now >= g.stopNs) {
		return
	}
	g.Sent++
	g.send(g.pkts.New(flow, g.app, g.size, now))
	if remaining > 1 {
		g.eng.Schedule(now+g.gapNs, (*churnEmit)(g), uint64(flow)<<32|uint64(remaining-1))
	}
}

// The generators' DES events are typed (sim.Handler) conversions of the
// generators themselves, so an emission tick schedules no closure.
type (
	cbrTick       CBR
	saturatorTick Saturator
	onOffToggle   OnOff
	onOffTick     OnOff
	churnArrival  Churn
	// churnEmit sends one mouse packet; its argument packs the flow ID
	// (high 32 bits) and the packets still to send (low 32 bits).
	churnEmit Churn
)

func (e *cbrTick) Fire(uint64)       { (*CBR)(e).emit() }
func (e *saturatorTick) Fire(uint64) { (*Saturator)(e).emit() }
func (e *onOffToggle) Fire(uint64)   { (*OnOff)(e).togglePhase() }
func (e *onOffTick) Fire(uint64)     { (*OnOff)(e).emit() }
func (e *churnArrival) Fire(uint64)  { (*Churn)(e).arrive() }

func (e *churnEmit) Fire(arg uint64) {
	(*Churn)(e).emitFlow(packet.FlowID(arg>>32), int(arg&math.MaxUint32))
}
