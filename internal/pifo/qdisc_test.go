package pifo

import (
	"testing"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// TestQdiscWireHoldsLineRate saturates a 40 Gbit/s wire with 64 B
// frames, whose 88 B on the wire take 17.6 ns each. The wire must carry
// the sub-nanosecond remainder from frame to frame: at every delivery,
// the count delivered so far may exceed the line rate's share of the
// elapsed time by at most one packet.
func TestQdiscWireHoldsLineRate(t *testing.T) {
	const (
		linkBps = 40e9
		size    = 64
		runNs   = 1_000_000
	)
	eng := sim.New()
	pol, err := NewPolicy(PolicyPrio, 1, linkBps)
	if err != nil {
		t.Fatal(err)
	}
	txNs := float64((size+packet.WireOverhead)*8) / linkBps * 1e9
	var delivered int
	var worst float64
	cb := dataplane.Callbacks{OnDeliver: func(p *packet.Packet) {
		delivered++
		if over := float64(delivered) - float64(p.EgressAt)/txNs; over > worst {
			worst = over
		}
	}}
	q, err := NewQdisc(eng, Config{Backend: BackendPIFO, LinkRateBps: linkBps}, pol, cb)
	if err != nil {
		t.Fatal(err)
	}
	// Offer one frame every 10 ns, 1.76x the line rate, so the wire
	// never idles.
	var alloc packet.Alloc
	var offer func()
	offer = func() {
		q.Enqueue(alloc.New(1, 0, size, eng.Now()))
		if eng.Now() < runNs {
			eng.After(10, offer)
		}
	}
	eng.At(0, offer)
	eng.RunUntil(runNs)
	if min := int(0.99 * runNs / txNs); delivered < min {
		t.Fatalf("delivered %d frames in %d ns, want at least %d", delivered, runNs, min)
	}
	if worst > 1 {
		t.Errorf("wire ran %.2f packets ahead of the %.1f ns/frame line rate", worst, txNs)
	}
}
