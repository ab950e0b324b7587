package experiments

import (
	"fmt"
	"strings"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/nic"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
	"flowvalve/internal/trafficgen"
)

// ChurnScenario drives FlowValve with a flow population far larger than
// the exact-match flow cache, the SuperNIC-style stress case: every
// packet of a fresh flow misses, inserts, and — once the cache is warm —
// displaces a colder flow by CLOCK. It is the harness behind the
// bounded-state claim: under any flow count, the cache holds at most its
// configured capacity while the NIC keeps forwarding (misses cost
// pipeline walks, never memory growth).
type ChurnScenario struct {
	// DurationNs is the simulated time (default 20ms).
	DurationNs int64
	// Flows is the distinct flow population sprayed round-robin across 4
	// apps (default 4× the cache capacity).
	Flows int
	// SizeBytes is the frame size (default 256).
	SizeBytes int
	// Cache bounds the flow cache under test; the zero value takes the
	// classifier defaults (65536 entries, 8 shards).
	Cache classifier.CacheConfig
	// Batch is the NIC Rx service batch size (0/1 = per-packet).
	Batch int
}

// ChurnResult reports one churn run.
type ChurnResult struct {
	// Cache is the flow cache's end-of-run snapshot.
	Cache dataplane.FlowCacheStats
	// Qdisc holds the enqueue/deliver/drop counters.
	Qdisc dataplane.Stats
	// OfferedFlows echoes the distinct flow population.
	OfferedFlows int
}

// RunFlowCacheChurn executes the churn scenario on the NIC model under
// the fair-queueing policy. The run is a pure function of the scenario:
// the DES is seedless here (round-robin sources), so two identical calls
// produce identical cache statistics — the eviction-determinism property
// the tests pin.
func RunFlowCacheChurn(sc ChurnScenario) (*ChurnResult, error) {
	if sc.DurationNs <= 0 {
		sc.DurationNs = 20 * 1e6
	}
	if sc.SizeBytes <= 0 {
		sc.SizeBytes = 256
	}
	script, err := fvconf.Parse(fvconf.FairQueueScript("40gbit", 4))
	if err != nil {
		return nil, err
	}
	t, rules, err := script.Compile()
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	cls, err := classifier.NewSized(t, rules, script.DefaultClass, sc.Cache)
	if err != nil {
		return nil, err
	}
	if sc.Flows <= 0 {
		sc.Flows = 4 * cls.CacheCap()
	}
	sched, err := core.New(t, eng.Clock(), core.Config{})
	if err != nil {
		return nil, err
	}
	counter := &DeliveredCounter{}
	alloc := &packet.Alloc{}
	dev, err := nic.New(eng, nic.Config{WireRateBps: 40e9, WirePorts: 4, BatchSize: sc.Batch},
		cls, sched, nicCallbacks(recycling(alloc, counter.Callbacks())))
	if err != nil {
		return nil, err
	}
	var q dataplane.Qdisc = dev

	// Offer moderate load — the point is flow diversity, not saturation:
	// every app sprays its quarter of the population round-robin, so the
	// working set sweeps the whole population once per rotation.
	offeredBps := 0.5 * 40e9
	perApp := (sc.Flows + 3) / 4
	for app := 0; app < 4; app++ {
		flows := make([]packet.FlowID, perApp)
		for i := range flows {
			flows[i] = packet.FlowID(app*perApp + i)
		}
		if _, err := trafficgen.NewSaturator(eng, alloc, flows, packet.AppID(app),
			sc.SizeBytes, offeredBps/4, 0, sc.DurationNs, q.Enqueue); err != nil {
			return nil, err
		}
	}
	eng.RunUntil(sc.DurationNs)

	res := &ChurnResult{Qdisc: q.QdiscStats(), OfferedFlows: sc.Flows}
	fc, ok := q.(dataplane.FlowCacher)
	if !ok {
		return nil, fmt.Errorf("experiments: NIC backend lost the FlowCacher probe")
	}
	res.Cache = fc.FlowCacheStats()
	return res, nil
}

// FormatChurn renders a churn result for the CLI.
func FormatChurn(r *ChurnResult) string {
	var sb strings.Builder
	sb.WriteString("flow-cache churn\n")
	fmt.Fprintf(&sb, "offered flows:  %d\n", r.OfferedFlows)
	fmt.Fprintf(&sb, "cache:          size=%d/%d shards=%d\n", r.Cache.Size, r.Cache.Capacity, r.Cache.Shards)
	fmt.Fprintf(&sb, "lookups:        hits=%d misses=%d evictions=%d\n", r.Cache.Hits, r.Cache.Misses, r.Cache.Evictions)
	fmt.Fprintf(&sb, "qdisc:          enqueued=%d delivered=%d dropped=%d\n", r.Qdisc.Enqueued, r.Qdisc.Delivered, r.Qdisc.Dropped)
	return sb.String()
}
