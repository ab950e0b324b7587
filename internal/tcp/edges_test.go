package tcp

import (
	"testing"

	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// A connection whose start and stop coincide sends at most its initial
// window: StartAt's event (registered first) pumps InitCwnd segments,
// StopAt's event at the same instant halts it, and the in-flight
// segments drain without triggering further sends.
func TestFlowZeroLengthWindow(t *testing.T) {
	eng := sim.New()
	flows := NewSet()
	link := newPipe(eng, flows, 1e9)
	alloc := &packet.Alloc{}
	f, err := NewFlow(eng, alloc, 1, 0, Config{InitCwnd: 4}, link.send)
	if err != nil {
		t.Fatal(err)
	}
	flows.Add(f)
	f.StartAt(1000)
	f.StopAt(1000)
	eng.RunUntil(1e9)

	sent, acked, _ := f.Counters()
	if sent > 4 {
		t.Fatalf("zero-length window sent %d segments, want ≤ InitCwnd (4)", sent)
	}
	if acked != sent {
		t.Fatalf("in-flight segments did not drain: sent=%d acked=%d", sent, acked)
	}
	if f.running {
		t.Fatal("flow still running after zero-length window")
	}
}

// Stop scheduled strictly before the start leaves the already-stopped
// flow stopped; the later start then legitimately (re)opens it. The
// start event must not be suppressed by a stale stop.
func TestFlowStopBeforeStart(t *testing.T) {
	eng := sim.New()
	flows := NewSet()
	link := newPipe(eng, flows, 1e9)
	alloc := &packet.Alloc{}
	f, err := NewFlow(eng, alloc, 1, 0, Config{}, link.send)
	if err != nil {
		t.Fatal(err)
	}
	flows.Add(f)
	f.StopAt(500)   // no-op: flow not yet running
	f.StartAt(1000) // real start
	f.StopAt(100e6)
	eng.RunUntil(200e6)

	sent, _, _ := f.Counters()
	if sent == 0 {
		t.Fatal("stale stop suppressed the start")
	}
	if f.running {
		t.Fatal("flow still running after final stop")
	}
}

// A restart after a stop re-enters slow start (cwnd resets) instead of
// resuming the old window — the post-fault-window behaviour scenarios
// rely on when a connection comes up after a stall has cleared.
func TestFlowRestartResetsWindow(t *testing.T) {
	eng := sim.New()
	flows := NewSet()
	link := newPipe(eng, flows, 100e9)
	alloc := &packet.Alloc{}
	f, err := NewFlow(eng, alloc, 1, 0, Config{BaseRTTNs: 1e6, InitCwnd: 2}, link.send)
	if err != nil {
		t.Fatal(err)
	}
	flows.Add(f)
	f.StartAt(0)
	f.StopAt(20e6) // ~20 RTTs of slow start: cwnd well above 2
	eng.RunUntil(30e6)
	if f.Cwnd() <= 2 {
		t.Fatalf("cwnd = %g after 20 RTTs, expected growth", f.Cwnd())
	}
	f.StartAt(40e6)
	eng.At(40e6+1, func() {
		if got := f.Cwnd(); got > 2.1 {
			t.Fatalf("restart kept cwnd = %g, want slow-start reset to 2", got)
		}
	})
	eng.RunUntil(41e6)
}
