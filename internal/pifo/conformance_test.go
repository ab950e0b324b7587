package pifo

import (
	"fmt"
	"testing"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
	"flowvalve/internal/telemetry"
	"flowvalve/internal/trafficgen"
)

// testTree builds a flat tree with n leaves under a non-limiting root.
func testTree(tb testing.TB, n int) *tree.Tree {
	tb.Helper()
	b := tree.NewBuilder().Root("root", 1e15)
	for i := 0; i < n; i++ {
		b.Add(tree.ClassSpec{Name: fmt.Sprintf("leaf%d", i), Parent: "root"})
	}
	tr, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func testLabels(tb testing.TB, tr *tree.Tree, n int) []*tree.Label {
	tb.Helper()
	labels := make([]*tree.Label, n)
	for i := range labels {
		lbl, ok := tr.LabelByName(fmt.Sprintf("leaf%d", i))
		if !ok {
			tb.Fatalf("missing label leaf%d", i)
		}
		labels[i] = lbl
	}
	return labels
}

func newTestSched(tb testing.TB, backend, policy string, clk clock.Clock, tr *tree.Tree, slots int) *Sched {
	tb.Helper()
	pol, err := NewPolicy(policy, slots, 1e9)
	if err != nil {
		tb.Fatal(err)
	}
	if b, ok := pol.(TreeBinder); ok {
		b.BindTree(tr)
	}
	s, err := NewSched(clk, Config{Backend: backend, LinkRateBps: 1e9, CapPkts: 128}, pol)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestScheduleBatchEquivalence pins the batch contract for every backend
// and policy: the verdict sequence of ScheduleBatch at sizes 1, 8 and 64
// is identical to per-request Schedule calls over the same request
// stream with the same clock trajectory (the clock advances only at
// shared batch boundaries, as the interface requires for equivalence).
func TestScheduleBatchEquivalence(t *testing.T) {
	const (
		slots    = 4
		nReqs    = 512
		groupLen = 64 // clock advances only at multiples of 64
	)
	tr := testTree(t, slots)
	labels := testLabels(t, tr, slots)

	rng := sim.NewRNG(99)
	reqs := make([]dataplane.Request, nReqs)
	for i := range reqs {
		reqs[i] = dataplane.Request{
			Label: labels[rng.Intn(slots)],
			Size:  64 + rng.Intn(1437),
		}
	}

	run := func(backend, policy string, batch int) []dataplane.Verdict {
		clk := clock.NewManual(0)
		s := newTestSched(t, backend, policy, clk, tr, slots)
		verdicts := make([]dataplane.Verdict, 0, nReqs)
		out := make([]dataplane.Decision, groupLen)
		for start := 0; start < nReqs; start += groupLen {
			if start > 0 {
				clk.Advance(200_000) // drain ~25 KB between groups
			}
			group := reqs[start : start+groupLen]
			if batch == 1 {
				for _, r := range group {
					d := s.Schedule(r.Label, r.Size)
					verdicts = append(verdicts, d.Verdict)
				}
				continue
			}
			for off := 0; off < groupLen; off += batch {
				chunk := group[off : off+batch]
				s.ScheduleBatch(chunk, out[:len(chunk)])
				for i := range chunk {
					verdicts = append(verdicts, out[i].Verdict)
					if out[i].Batched != len(chunk) {
						t.Fatalf("%s/%s: Batched=%d want %d", backend, policy, out[i].Batched, len(chunk))
					}
				}
			}
		}
		return verdicts
	}

	for _, backend := range BackendNames() {
		for _, policy := range PolicyNames() {
			t.Run(backend+"/"+policy, func(t *testing.T) {
				ref := run(backend, policy, 1)
				for _, batch := range []int{1, 8, 64} {
					got := run(backend, policy, batch)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("batch %d diverges at request %d: got %v want %v",
								batch, i, got[i], ref[i])
						}
					}
				}
				// The stream must exercise both verdicts, or the
				// equivalence above is vacuous.
				fwd, drop := 0, 0
				for _, v := range ref {
					if v == dataplane.Forward {
						fwd++
					} else {
						drop++
					}
				}
				if fwd == 0 || drop == 0 {
					t.Fatalf("degenerate stream: %d forwards, %d drops", fwd, drop)
				}
			})
		}
	}
}

// qdiscRun drives one backend Qdisc with seeded bursty overload and
// returns everything observable.
type qdiscResult struct {
	sent      uint64
	delivered uint64
	dropped   uint64
	backlog   int
	stats     dataplane.Stats
	qs        QueueStats
	inv       uint64
	reg       *telemetry.Registry
}

func qdiscRun(tb testing.TB, backend string, seed uint64) qdiscResult {
	tb.Helper()
	const (
		apps       = 4
		durationNs = 20_000_000 // 20 ms
		linkBps    = 1e9
	)
	eng := sim.New()
	pol, err := NewPolicy(PolicyWFQ, apps, linkBps)
	if err != nil {
		tb.Fatal(err)
	}
	var delivered, dropped uint64
	cb := dataplane.Callbacks{
		OnDeliver: func(p *packet.Packet) { delivered++ },
		OnDrop:    func(p *packet.Packet) { dropped++ },
	}
	q, err := NewQdisc(eng, Config{Backend: backend, LinkRateBps: linkBps, CapPkts: 256}, pol, cb)
	if err != nil {
		tb.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	q.AttachTelemetry(reg)

	var alloc packet.Alloc
	var sent uint64
	send := func(p *packet.Packet) { sent++; q.Enqueue(p) }
	for a := 0; a < apps; a++ {
		// Aggregate offered ≈ 4 × 0.6 Gbps × 50% duty = 1.2× the link.
		_, err := trafficgen.NewOnOff(eng, &alloc, packet.FlowID(a), packet.AppID(a),
			1000, 600e6, 200_000, 200_000, 0, durationNs, seed+uint64(a)*17, send)
		if err != nil {
			tb.Fatal(err)
		}
	}
	// Sources stop at durationNs; run twice as long so the queue and the
	// wire drain completely and conservation is exact.
	eng.RunUntil(2 * durationNs)
	return qdiscResult{
		sent:      sent,
		delivered: delivered,
		dropped:   dropped,
		backlog:   q.Backlog(),
		stats:     q.QdiscStats(),
		qs:        q.QueueStats(),
		inv:       q.Inversions(),
		reg:       reg,
	}
}

// TestQdiscConformance checks every backend against the dataplane
// contract: packet conservation across admission, delivery, backlog and
// eviction; callback counts matching stats; attached telemetry matching
// the same counters; and the exact oracle delivering zero inversions.
func TestQdiscConformance(t *testing.T) {
	for _, spec := range Backends() {
		backend := spec.Name
		t.Run(backend, func(t *testing.T) {
			res := qdiscRun(t, backend, 42)
			if res.sent == 0 || res.delivered == 0 {
				t.Fatalf("degenerate run: sent=%d delivered=%d", res.sent, res.delivered)
			}
			if res.stats.Dropped == 0 {
				t.Fatalf("overload produced no drops (sent=%d)", res.sent)
			}
			qs := res.qs
			if res.stats.Enqueued != qs.Admitted {
				t.Errorf("Enqueued=%d, structure admitted %d", res.stats.Enqueued, qs.Admitted)
			}
			if got, want := res.stats.Dropped, qs.RankDrops+qs.FullDrops+qs.EvictDrops; got != want {
				t.Errorf("Dropped=%d, structure drops sum %d", got, want)
			}
			if got, want := res.sent, qs.Admitted+qs.RankDrops+qs.FullDrops; got != want {
				t.Errorf("sent=%d, admitted+rejected=%d", got, want)
			}
			if res.backlog != 0 {
				t.Errorf("backlog %d after full drain", res.backlog)
			}
			if got, want := qs.Admitted, res.stats.Delivered+qs.EvictDrops; got != want {
				t.Errorf("admitted=%d, delivered+evicted=%d", got, want)
			}
			if res.delivered != res.stats.Delivered {
				t.Errorf("OnDeliver fired %d times, stats say %d", res.delivered, res.stats.Delivered)
			}
			if res.dropped != res.stats.Dropped {
				t.Errorf("OnDrop fired %d times, stats say %d", res.dropped, res.stats.Dropped)
			}
			if backend == BackendPIFO && res.inv != 0 {
				t.Errorf("exact oracle delivered %d inversions", res.inv)
			}

			// Telemetry carries the same counters: re-requesting the
			// same (name, labels) returns the registered instance.
			sched := telemetry.Label{Key: "scheduler", Value: backend}
			if got := res.reg.Counter("fv_delivered_packets_total", "", sched).Value(); uint64(got) != res.stats.Delivered {
				t.Errorf("fv_delivered_packets_total=%d, stats %d", got, res.stats.Delivered)
			}
			if got := res.reg.Counter("fv_enqueued_packets_total", "", sched).Value(); uint64(got) != res.stats.Enqueued {
				t.Errorf("fv_enqueued_packets_total=%d, stats %d", got, res.stats.Enqueued)
			}
			if got := res.reg.Counter("fv_pifo_inversions_total", "", sched).Value(); uint64(got) != res.inv {
				t.Errorf("fv_pifo_inversions_total=%d, Inversions() %d", got, res.inv)
			}
		})
	}
}

// TestSPPIFOAdaptsBounds pins the push-up/push-down semantics on a
// two-queue bank, following the worked example in the SP-PIFO paper:
// bounds chase admitted ranks upward, and an arrival better than every
// bound shifts the whole vector down by its miss cost.
func TestSPPIFOAdaptsBounds(t *testing.T) {
	q := newBank(&Config{Backend: BackendSPPIFO, CapPkts: 16, Bands: 2}, 1)
	if band := q.admitBand(10); band != 1 {
		t.Fatalf("rank 10 mapped to band %d, want lowest-priority band 1", band)
	}
	if q.bounds[1] != 10 {
		t.Fatalf("push-up missing: bounds=%v", q.bounds)
	}
	if band := q.admitBand(5); band != 0 || q.bounds[0] != 5 {
		t.Fatalf("rank 5: band %d bounds %v, want band 0 bounds [5 10]", band, q.bounds)
	}
	if q.st.PushUps != 2 {
		t.Fatalf("PushUps=%d, want 2", q.st.PushUps)
	}
	// Rank 3 beats every bound: push-down by the miss cost 5-3=2.
	if band := q.admitBand(3); band != 0 {
		t.Fatalf("rank 3 mapped to band %d, want 0", band)
	}
	if q.st.PushDowns != 1 || q.bounds[0] != 3 || q.bounds[1] != 8 {
		t.Fatalf("push-down wrong: PushDowns=%d bounds=%v, want 1 [3 8]", q.st.PushDowns, q.bounds)
	}
	// And the harness still observes upward adaptation end to end.
	res := qdiscRun(t, BackendSPPIFO, 7)
	if res.qs.PushUps == 0 {
		t.Error("no push-up adaptations recorded in a full run")
	}
}

// TestQdiscCapabilityProbes pins the discovery contract: the family
// exposes backlog and telemetry, and does not claim host-CPU accounting.
func TestQdiscCapabilityProbes(t *testing.T) {
	eng := sim.New()
	pol, _ := NewPolicy(PolicyPrio, 2, 1e9)
	q, err := NewQdisc(eng, Config{}, pol, dataplane.Callbacks{})
	if err != nil {
		t.Fatal(err)
	}
	var dq dataplane.Qdisc = q
	if _, ok := dq.(dataplane.Backlogger); !ok {
		t.Error("Backlogger probe failed")
	}
	if _, ok := dq.(dataplane.TelemetrySink); !ok {
		t.Error("TelemetrySink probe failed")
	}
	if _, ok := dq.(dataplane.HostAccountant); ok {
		t.Error("family should not claim host-CPU accounting (it models an offloaded path)")
	}
}

// TestConfigValidation covers the registry error paths.
func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	pol, _ := NewPolicy(PolicyPrio, 2, 1e9)
	if _, err := NewQdisc(eng, Config{Backend: "htb"}, pol, dataplane.Callbacks{}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := NewPolicy("fifo", 2, 1e9); err == nil {
		t.Error("unknown policy accepted")
	}
	if !IsBackend(BackendEiffel) || IsBackend("htb") {
		t.Error("IsBackend misclassifies")
	}
}
