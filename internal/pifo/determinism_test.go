package pifo

import (
	"fmt"
	"strings"
	"testing"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
	"flowvalve/internal/telemetry"
	"flowvalve/internal/trafficgen"
)

// determinismRun executes one seeded overload scenario against a backend
// with telemetry attached and reduces everything observable — the metric
// export and the full delivery trace (flow, app, seq, rank, egress
// instant of every delivered packet, plus every drop) — to one string.
func determinismRun(tb testing.TB, backend string, seed uint64) string {
	tb.Helper()
	dump, _ := determinismRunPolicy(tb, backend, PolicyWFQ, seed)
	return dump
}

// determinismRunPolicy is determinismRun under any rank policy; it also
// returns the structure's admission counters.
func determinismRunPolicy(tb testing.TB, backend, policy string, seed uint64) (string, QueueStats) {
	tb.Helper()
	const (
		apps       = 4
		durationNs = 10_000_000
		linkBps    = 1e9
	)
	eng := sim.New()
	pol, err := NewPolicy(policy, apps, linkBps)
	if err != nil {
		tb.Fatal(err)
	}
	var trace strings.Builder
	cb := dataplane.Callbacks{
		OnDrop: func(p *packet.Packet) {
			fmt.Fprintf(&trace, "D %d.%d.%d\n", p.Flow, p.App, p.Seq)
		},
	}
	cfg := Config{
		Backend:     backend,
		LinkRateBps: linkBps,
		CapPkts:     256,
		OnDequeue: func(p *packet.Packet, r Rank) {
			fmt.Fprintf(&trace, "T %d.%d.%d r=%d at=%d\n", p.Flow, p.App, p.Seq, r, p.EgressAt)
		},
	}
	q, err := NewQdisc(eng, cfg, pol, cb)
	if err != nil {
		tb.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	q.AttachTelemetry(reg)

	var alloc packet.Alloc
	for a := 0; a < apps; a++ {
		_, err := trafficgen.NewOnOff(eng, &alloc, packet.FlowID(a), packet.AppID(a),
			1000, 600e6, 200_000, 200_000, 0, durationNs, seed+uint64(a)*17, q.Enqueue)
		if err != nil {
			tb.Fatal(err)
		}
	}
	eng.RunUntil(2 * durationNs)
	return reg.Dump() + "\n---\n" + trace.String(), q.QueueStats()
}

// TestSeededRunsBitIdentical mirrors the repo-wide determinism
// regression pattern for the new family: two runs of the same seeded
// scenario must produce byte-identical metric dumps and delivery traces
// for every backend. Any wall-clock or map-iteration leak in a backend
// structure shows up here.
func TestSeededRunsBitIdentical(t *testing.T) {
	for _, spec := range Backends() {
		backend := spec.Name
		t.Run(backend, func(t *testing.T) {
			a := determinismRun(t, backend, 1234)
			b := determinismRun(t, backend, 1234)
			if a != b {
				t.Fatalf("seeded runs diverged:\nrun A:\n%.600s\nrun B:\n%.600s", a, b)
			}
			if !strings.Contains(a, "T ") {
				t.Fatal("trace recorded no deliveries")
			}
			// A different seed must actually change the trace, or the
			// equality above proves nothing.
			c := determinismRun(t, backend, 99)
			if a == c {
				t.Fatal("different seeds produced identical runs")
			}
		})
	}
}
