package nic

import (
	"testing"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
	"flowvalve/internal/trafficgen"
)

// rig bundles a NIC with a single match-all class for tests.
type rig struct {
	eng   *sim.Engine
	nic   *NIC
	sched *core.Scheduler

	delivered []*packet.Packet
	drops     map[DropReason]int
}

func newRig(t *testing.T, cfg Config, rootRateBps float64, withSched bool) *rig {
	t.Helper()
	tr := tree.NewBuilder().
		Root("root", rootRateBps).
		Add(tree.ClassSpec{Name: "leaf", Parent: "root"}).
		MustBuild()
	eng := sim.New()
	cls, err := classifier.New(tr, []classifier.Rule{
		{App: classifier.AnyApp, Flow: classifier.AnyFlow, Class: "leaf"},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: eng, drops: make(map[DropReason]int)}
	if withSched {
		r.sched, err = core.New(tr, eng.Clock(), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
	}
	r.nic, err = New(eng, cfg, cls, r.sched, Callbacks{
		OnDeliver: func(p *packet.Packet) { r.delivered = append(r.delivered, p) },
		OnDrop:    func(p *packet.Packet, reason DropReason) { r.drops[reason]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	tr := tree.NewBuilder().Root("r", 1e9).Add(tree.ClassSpec{Name: "l", Parent: "r"}).MustBuild()
	cls, _ := classifier.New(tr, nil, "l")
	if _, err := New(nil, Config{}, cls, nil, Callbacks{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(eng, Config{}, nil, nil, Callbacks{}); err == nil {
		t.Fatal("nil classifier accepted")
	}
}

func TestDefaultsAreAgilioClass(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.Cores != 50 || cfg.CoreFreqHz != 800e6 || cfg.WireRateBps != 40e9 || cfg.WirePorts != 4 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// A single packet flows through the pipeline: service time + wire
// serialization + fixed latency, delivered exactly once.
func TestSinglePacketPipeline(t *testing.T) {
	r := newRig(t, Config{}, 40e9, false)
	var a packet.Alloc
	p := a.New(0, 0, 1500, 0)
	r.nic.Inject(p)
	r.eng.Run()
	if len(r.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(r.delivered))
	}
	cfg := r.nic.Config()
	if p.EgressAt <= 0 {
		t.Fatal("EgressAt not stamped")
	}
	minLatency := cfg.FixedLatencyNs
	if p.EgressAt < minLatency {
		t.Fatalf("egress %dns before the fixed pipeline latency %dns", p.EgressAt, minLatency)
	}
	st := r.nic.Stats()
	if st.Injected != 1 || st.Delivered != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// Without a scheduler the NIC is a pass-through bounded by the wire.
func TestWireRateBound(t *testing.T) {
	r := newRig(t, Config{WireRateBps: 10e9, WirePorts: 1}, 100e9, false)
	alloc := &packet.Alloc{}
	// Offer 20Gbps of 1518B frames for 20ms.
	if _, err := trafficgen.NewCBR(r.eng, alloc, 1, 0, 1518, 20e9, 0, 20e6, r.nic.Inject); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	var bytes int64
	for _, p := range r.delivered {
		bytes += int64(p.WireBytes())
	}
	// Wire-rate bound: no more than 10G×20ms plus the TM backlog that
	// drains after the sources stop, the packets in service on the
	// cores, and their wire overhead.
	cfg := r.nic.Config()
	slack := cfg.TMQueueBytes + int64(cfg.Cores)*1542 + int64(float64(cfg.TMQueueBytes)*0.02)
	bound := int64(10e9/8*0.020) + slack
	if bytes > bound {
		t.Fatalf("delivered %d wire-bytes, wire bound %d", bytes, bound)
	}
	if r.drops[DropTM] == 0 {
		t.Fatal("expected TM tail drops when over-driving the wire without a scheduler")
	}
}

// Per-flow packet order is preserved end to end.
func TestPerFlowOrderPreserved(t *testing.T) {
	r := newRig(t, Config{}, 100e9, false)
	var a packet.Alloc
	const n = 500
	for i := 0; i < n; i++ {
		p := a.New(3, 0, 200, r.eng.Now())
		r.nic.Inject(p)
	}
	r.eng.Run()
	if len(r.delivered) != n {
		t.Fatalf("delivered %d, want %d", len(r.delivered), n)
	}
	var last uint64
	for _, p := range r.delivered {
		if p.Flow != 3 {
			continue
		}
		if p.ID < last {
			t.Fatal("per-flow order violated")
		}
		last = p.ID
	}
}

// The FlowValve scheduler drops the excess; once the initial configured
// burst has drained (the first few ms) the TM stays congestion-free.
func TestSchedulerPreventsTMCongestion(t *testing.T) {
	r := newRig(t, Config{WireRateBps: 40e9}, 10e9, true)
	alloc := &packet.Alloc{}
	if _, err := trafficgen.NewCBR(r.eng, alloc, 1, 0, 1518, 20e9, 0, 60e6, r.nic.Inject); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(10e6)
	warmupTM := r.nic.Stats().TMDrops
	r.eng.Run()
	st := r.nic.Stats()
	if st.SchedDrops == 0 {
		t.Fatal("scheduler dropped nothing at 2× the policy rate")
	}
	if st.TMDrops != warmupTM {
		t.Fatalf("TM overflowed %d times in steady state despite the scheduler",
			st.TMDrops-warmupTM)
	}
	// Delivered ≈ 10G of wire bytes in the steady window [10ms, 60ms].
	var bytes int64
	for _, p := range r.delivered {
		if p.EgressAt >= 10e6 {
			bytes += int64(p.WireBytes())
		}
	}
	rate := float64(bytes) * 8 / 0.05
	if rate < 9e9 || rate > 11e9 {
		t.Fatalf("delivered %.2fG wire, want ≈10G", rate/1e9)
	}
}

// Unclassified packets (no rule, no default) are dropped and counted.
func TestUnclassifiedDrop(t *testing.T) {
	tr := tree.NewBuilder().
		Root("root", 1e9).
		Add(tree.ClassSpec{Name: "leaf", Parent: "root"}).
		MustBuild()
	eng := sim.New()
	cls, _ := classifier.New(tr, []classifier.Rule{{App: 1, Flow: classifier.AnyFlow, Class: "leaf"}}, "")
	sched, _ := core.New(tr, eng.Clock(), core.Config{})
	var drops int
	dev, err := New(eng, Config{}, cls, sched, Callbacks{
		OnDrop: func(p *packet.Packet, reason DropReason) {
			if reason == DropUnclassified {
				drops++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a packet.Alloc
	dev.Inject(a.New(0, 99, 100, 0)) // app 99 matches nothing
	eng.Run()
	if drops != 1 || dev.Stats().Unclassified != 1 {
		t.Fatalf("unclassified drops = %d / %d, want 1/1", drops, dev.Stats().Unclassified)
	}
}

// Over-driving the processing capacity overflows the Rx rings.
func TestRxRingOverflow(t *testing.T) {
	cfg := Config{Cores: 1, CoreFreqHz: 100e6, RxRingPkts: 16}
	r := newRig(t, cfg, 100e9, false)
	var a packet.Alloc
	for i := 0; i < 200; i++ {
		r.nic.Inject(a.New(0, 0, 64, 0))
	}
	r.eng.Run()
	if r.drops[DropRxRing] == 0 {
		t.Fatal("expected Rx ring drops at 200 back-to-back packets on a slow core")
	}
	st := r.nic.Stats()
	if st.RxRingDrops+st.Delivered != 200 {
		t.Fatalf("accounting mismatch: %+v", st)
	}
}

// Delivered throughput at saturation matches the cycle model.
func TestProcessingBoundThroughput(t *testing.T) {
	cfg := Config{Cores: 10, CoreFreqHz: 800e6}
	r := newRig(t, cfg, 1000e9, true) // policy never binds
	alloc := &packet.Alloc{}
	flows := []packet.FlowID{0, 1, 2, 3}
	if _, err := trafficgen.NewSaturator(r.eng, alloc, flows, 0, 64, 20e9, 0, 20e6, r.nic.Inject); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	pps := float64(len(r.delivered)) / 0.02
	want := float64(cfg.Cores) * cfg.CoreFreqHz / float64(Config{}.Defaults().Costs.PerPacket(2))
	if pps < want*0.9 || pps > want*1.1 {
		t.Fatalf("delivered %.2fMpps, cycle model predicts %.2fMpps", pps/1e6, want/1e6)
	}
}

func TestQueuedBytes(t *testing.T) {
	r := newRig(t, Config{WireRateBps: 1e9, WirePorts: 1}, 100e9, false)
	var a packet.Alloc
	for i := 0; i < 10; i++ {
		r.nic.Inject(a.New(0, 0, 1500, 0))
	}
	// Run just past the service time so packets sit in the TM.
	r.eng.RunUntil(20_000)
	if r.nic.QueuedBytes() == 0 {
		t.Fatal("expected TM backlog on a slow wire")
	}
	r.eng.Run()
	if r.nic.QueuedBytes() != 0 {
		t.Fatal("TM backlog not drained")
	}
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropSched: "sched", DropRxRing: "rx-ring", DropTM: "tm",
		DropUnclassified: "unclassified", DropReason(0): "invalid",
	} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

// The load balancer spreads work evenly across the micro-engine
// clusters.
func TestClusterLoadBalance(t *testing.T) {
	r := newRig(t, Config{Cores: 50, Clusters: 5}, 1000e9, false)
	alloc := &packet.Alloc{}
	if _, err := trafficgen.NewCBR(r.eng, alloc, 1, 0, 1500, 10e9, 0, 10e6, r.nic.Inject); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	st := r.nic.Stats()
	if len(st.ClusterBusyCycles) != 5 {
		t.Fatalf("cluster stats = %d entries, want 5", len(st.ClusterBusyCycles))
	}
	var minC, maxC float64
	for i, c := range st.ClusterBusyCycles {
		if c == 0 {
			t.Fatalf("cluster %d did no work", i)
		}
		if i == 0 || c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC > 1.3*minC {
		t.Fatalf("cluster imbalance: %v", st.ClusterBusyCycles)
	}
	// Stats() must return an independent copy.
	st.ClusterBusyCycles[0] = -1
	if r.nic.Stats().ClusterBusyCycles[0] == -1 {
		t.Fatal("Stats shares its slice with the NIC")
	}
}

// A tiny buffer pool with slow recycling exhausts under a burst: the
// manager core's batching delay is visible.
func TestBufferPoolExhaustion(t *testing.T) {
	cfg := Config{BufferPool: 8, BufferRecycleNs: 1_000_000, RxRingPkts: 4}
	r := newRig(t, cfg, 1000e9, false)
	var a packet.Alloc
	for i := 0; i < 64; i++ {
		r.nic.Inject(a.New(0, 0, 200, 0))
	}
	r.eng.Run()
	st := r.nic.Stats()
	if st.BufferDrops == 0 {
		t.Fatal("expected buffer-pool exhaustion drops")
	}
	if st.Delivered+st.BufferDrops+st.RxRingDrops != 64 {
		t.Fatalf("accounting mismatch: %+v", st)
	}
	// After recycling, the pool serves new packets again.
	before := r.nic.Stats().Delivered
	r.nic.Inject(a.New(0, 0, 200, r.eng.Now()))
	r.eng.Run()
	if r.nic.Stats().Delivered != before+1 {
		t.Fatal("pool did not recover after recycle pass")
	}
}

// A bursty on/off source is still rate-conformant on average: the
// scheduler's buckets absorb bursts up to the configured burst and drop
// the rest, keeping long-run admission at the policy rate.
func TestBurstySourceConformance(t *testing.T) {
	r := newRig(t, Config{WireRateBps: 40e9}, 5e9, true)
	alloc := &packet.Alloc{}
	// Peak 20G, 50% duty → 10G offered average against a 5G policy.
	if _, err := trafficgen.NewOnOff(r.eng, alloc, 1, 0, 1500, 20e9,
		2e6, 2e6, 0, 300e6, 99, r.nic.Inject); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	var bytes int64
	for _, p := range r.delivered {
		if p.EgressAt >= 50e6 { // skip the initial burst allowance
			bytes += int64(p.WireBytes())
		}
	}
	rate := float64(bytes) * 8 / 0.25
	// Bounds: with no token banking across OFF periods the mean would be
	// ≈2.5G (policy only during ON); perfect banking gives 5G; the
	// exponential-phase truncation and the burst cap land in between.
	// Above 5.8G would mean the buckets minted tokens.
	if rate < 3.0e9 || rate > 5.8e9 {
		t.Fatalf("bursty admission = %.2fG, want within (3.0, 5.8): banked-burst shaping", rate/1e9)
	}
	st := r.nic.Stats()
	if st.SchedDrops == 0 {
		t.Fatal("no scheduling drops under 2× average overload")
	}
}

// Thread contexts hide memory stalls: with 4 contexts per ME the NIC is
// compute-bound at the calibrated rate; with a single context the same
// silicon loses more than half its packet rate (§III-B threading).
func TestThreadContextsHideMemoryStalls(t *testing.T) {
	measure := func(threads int) float64 {
		r := newRig(t, Config{ThreadsPerME: threads}, 1000e9, true)
		alloc := &packet.Alloc{}
		flows := make([]packet.FlowID, 8)
		for i := range flows {
			flows[i] = packet.FlowID(i)
		}
		if _, err := trafficgen.NewSaturator(r.eng, alloc, flows, 0, 64,
			30e9, 0, 20e6, r.nic.Inject); err != nil {
			t.Fatal(err)
		}
		r.eng.Run()
		return float64(len(r.delivered)) / 0.02
	}
	four := measure(4)
	one := measure(1)
	cfg := Config{}.Defaults()
	computeBound := float64(cfg.Cores) * cfg.CoreFreqHz / float64(cfg.Costs.PerPacket(2))
	if four < 0.9*computeBound {
		t.Fatalf("4 contexts: %.2fMpps, want compute-bound ≈%.2fMpps", four/1e6, computeBound/1e6)
	}
	memBound := float64(cfg.Cores) * cfg.CoreFreqHz / float64(cfg.Costs.PerPacket(2)+cfg.Costs.MemStall)
	if one > 1.1*memBound || one < 0.9*memBound {
		t.Fatalf("1 context: %.2fMpps, want stall-bound ≈%.2fMpps", one/1e6, memBound/1e6)
	}
}

// reinjectRun drives a one-context NIC whose classifier knows only app
// 0: every app-1 packet is unclassified, and its OnDrop synchronously
// re-injects it as app 0 on a fresh flow, from inside the burst's
// completion event. The context is stalled while the first wave queues,
// so at batch 8 that wave is one burst of 8 that fills the initial
// 8-slot reorder ring, and its first packet's re-injection must grow the
// ring mid-burst. It returns each flow's delivered packet IDs in
// delivery order and how many re-injections grew the ring.
func reinjectRun(t *testing.T, batch int) (map[packet.FlowID][]uint64, int) {
	t.Helper()
	tr := tree.NewBuilder().
		Root("root", 40e9).
		Add(tree.ClassSpec{Name: "leaf", Parent: "root"}).
		MustBuild()
	eng := sim.New()
	cls, err := classifier.New(tr, []classifier.Rule{
		{App: 0, Flow: classifier.AnyFlow, Class: "leaf"},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(map[packet.FlowID][]uint64)
	grewInside := 0
	var n *NIC
	n, err = New(eng, Config{Cores: 1, Clusters: 1, WirePorts: 1, BatchSize: batch}, cls, nil, Callbacks{
		OnDeliver: func(p *packet.Packet) { delivered[p.Flow] = append(delivered[p.Flow], p.ID) },
		OnDrop: func(p *packet.Packet, reason DropReason) {
			if reason != DropUnclassified {
				t.Fatalf("packet %d dropped (%v)", p.ID, reason)
			}
			p.App, p.Flow = 0, p.Flow+1000
			p.Tuple = packet.TupleFor(p.App, p.Flow)
			before := len(n.inflight)
			n.Inject(p)
			if len(n.inflight) > before {
				grewInside++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a packet.Alloc
	wave := func(pkts int) {
		for i := 0; i < pkts; i++ {
			n.Inject(a.New(packet.FlowID(i%4), packet.AppID(1-i%2), 64, eng.Now()))
		}
	}
	n.StallCores(1, 1000)
	wave(8)
	eng.At(200_000, func() { wave(64) })
	eng.Run()
	if st := n.Stats(); st.Delivered != 72 {
		t.Fatalf("batch %d: delivered %d of 72 (%+v)", batch, st.Delivered, st)
	}
	return delivered, grewInside
}

// A completion event that re-enters Inject (OnDrop → Inject) can start a
// burst that doubles the reorder ring mid-loop. The loop must finish the
// rest of its burst from the grown ring: every packet is delivered
// exactly once, and each flow's delivery order matches the same run
// serviced one packet at a time.
func TestReorderRingGrowsInsideCompletion(t *testing.T) {
	got, grew := reinjectRun(t, 8)
	if grew == 0 {
		t.Fatal("no re-injection grew the in-flight ring; the test no longer covers mid-burst growth")
	}
	want, _ := reinjectRun(t, 1)
	if len(got) != len(want) {
		t.Fatalf("batch 8 delivered %d flows, batch 1 %d", len(got), len(want))
	}
	for flow, ids := range want {
		g := got[flow]
		if len(g) != len(ids) {
			t.Fatalf("flow %d: batch 8 delivered %d packets, batch 1 %d", flow, len(g), len(ids))
		}
		for i := range ids {
			if g[i] != ids[i] {
				t.Fatalf("flow %d: batch 8 order %v, batch 1 order %v", flow, g, ids)
			}
		}
	}
}
