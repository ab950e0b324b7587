package main

import (
	"fmt"
	"io"

	"flowvalve/internal/fvconf"
	"flowvalve/internal/headers"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"

	"flowvalve/internal/classifier"
)

// burstLen is the packets per burst: the NIC's Rx service burst and the
// unit of burst_p50_us / burst_p99_us.
const burstLen = 32

// roundPkts is the fixed round of decisions run_s is reported for on
// the packet workloads (run_s = wall time per 2^22 decisions).
const roundPkts = 1 << 22

// frameSizes is the simple IMIX frame mix (7:4:1 of 64, 594 and 1518
// bytes, mean 361.8 B): small frames dominate the packet count, large
// ones the byte count.
var frameSizes = [12]int{64, 64, 64, 64, 64, 64, 64, 594, 594, 594, 594, 1518}

// compiled is a policy compiled by the program plus the benchmark's own
// reading of the same script.
type compiled struct {
	tree   *tree.Tree
	rules  []classifier.Rule
	defCls string
	pol    *scriptPolicy
	leaves []string // leaves[app] is the leaf the app must be labelled with
}

func compile(script string, apps int) (*compiled, error) {
	s, err := fvconf.Parse(script)
	if err != nil {
		return nil, err
	}
	t, rules, err := s.Compile()
	if err != nil {
		return nil, err
	}
	pol, err := parseScript(script)
	if err != nil {
		return nil, err
	}
	leaves, err := pol.leafNames(apps)
	if err != nil {
		return nil, err
	}
	return &compiled{tree: t, rules: rules, defCls: s.DefaultClass, pol: pol, leaves: leaves}, nil
}

// flowPacket returns the template packet of one flow: its app (flow mod
// apps) and a five-tuple, so a cache miss runs the header parser.
func flowPacket(flow uint32, apps int) packet.Packet {
	return packet.Packet{
		Flow: packet.FlowID(flow),
		App:  packet.AppID(flow % uint32(apps)),
		Tuple: headers.FiveTuple{
			SrcIP:   0x0a000000 | flow&0xffffff,
			DstIP:   0x0a630001,
			SrcPort: uint16(1024 + flow%60000),
			DstPort: 5201,
			Proto:   headers.ProtoTCP,
		},
	}
}

// packetRun is what a packet workload measured in its untraced phase.
type packetRun struct {
	setupS float64
	// rate is decisions per second: the sum over concurrent workers of
	// each one's median window rate (on pifo-family, the median cycle
	// rate).
	rate float64
	win  []*windowed
}

// endToEnd turns a packet run into the end-to-end metrics.
func (r packetRun) endToEnd(log io.Writer) map[string]metric {
	p50, p99, windows, bursts := burstQuantiles(r.win)
	for i, w := range r.win {
		fmt.Fprintf(log, "window rates of worker %d, Mpkt/s: 10th %.3f, 25th %.3f, median %.3f, 75th %.3f, 90th %.3f\n",
			i, sortedQuantile(w.rates, 0.1)/1e6, sortedQuantile(w.rates, 0.25)/1e6, sortedQuantile(w.rates, 0.5)/1e6,
			sortedQuantile(w.rates, 0.75)/1e6, sortedQuantile(w.rates, 0.9)/1e6)
	}
	fmt.Fprintf(log, "bursts timed: %d in %d windows of at most %.2f s; each window's percentiles from a sample of up to %d bursts\n",
		bursts, windows, windowNs/1e9, windowSample)
	return map[string]metric{
		"setup_s":      {r.setupS, "s"},
		"pkts_per_s":   {r.rate / 1e6, "Mpkt/s"},
		"burst_p50_us": {p50 / 1e3, "us"},
		"burst_p99_us": {p99 / 1e3, "us"},
		"run_s":        {roundPkts / r.rate, "s"},
	}
}

// perLayerNames lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A traced run prints all of them; a layer the
// workload does not call reads 0.
var perLayerNames = [][2]string{
	{"classifier.ns_per_pkt", "ns"},
	{"classifier.miss_ratio", "ratio"},
	{"classifier.evictions_per_kpkt", "count/kpkt"},
	{"core.ns_per_pkt", "ns"},
	{"core.forward_ratio", "ratio"},
	{"core.borrow_ratio", "ratio"},
	{"core.updates_per_kpkt", "count/kpkt"},
	{"offload.observe_ns_per_pkt", "ns"},
	{"offload.tick_p99_us", "us"},
	{"offload.fast_share", "ratio"},
	{"offload.installs", "count/Mpkt"},
	{"offload.demotions", "count/Mpkt"},
	{"offload.queue_drops", "count/Mpkt"},
	{"pifo.pifo.ns_per_pkt", "ns"},
	{"pifo.sppifo.ns_per_pkt", "ns"},
	{"pifo.aifo.ns_per_pkt", "ns"},
	{"pifo.rifo.ns_per_pkt", "ns"},
	{"pifo.eiffel.ns_per_pkt", "ns"},
	{"pifo.fvrank.ns_per_pkt", "ns"},
	{"pifo.pifo.drop_ratio", "ratio"},
	{"pifo.sppifo.drop_ratio", "ratio"},
	{"pifo.aifo.drop_ratio", "ratio"},
	{"pifo.rifo.drop_ratio", "ratio"},
	{"pifo.eiffel.drop_ratio", "ratio"},
	{"pifo.fvrank.drop_ratio", "ratio"},
	{"bench.ns_per_pkt", "ns"},
	{"bench.trace_overhead", "ratio"},
	{"reproduce.fig11a_s", "s"},
	{"reproduce.offload_sweep_s", "s"},
	{"cpu.sim", "share"},
	{"cpu.nic", "share"},
	{"cpu.tcp", "share"},
	{"cpu.trafficgen", "share"},
	{"cpu.core", "share"},
	{"cpu.classifier", "share"},
	{"cpu.offload", "share"},
	{"cpu.runtime", "share"},
	{"cpu.other", "share"},
	{"gc.cycles", "count"},
	{"alloc_mb", "MB"},
}

// perLayer returns the full per-layer metric set with the given values
// filled in; every other metric reads 0.
func perLayer(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerNames))
	for _, nu := range perLayerNames {
		out[nu[0]] = metric{vals[nu[0]], nu[1]}
		delete(vals, nu[0])
	}
	for name := range vals {
		return nil, fmt.Errorf("per-layer metric %q is not declared", name)
	}
	return out, nil
}

// report prints the failed run-level checks and builds the result
// object. When a run-level check fails, every operation it covers is
// counted as failed.
func report(log io.Writer, checks *checkList, attempted, failed int64, metrics map[string]metric) *result {
	for _, err := range checks.errs {
		fmt.Fprintln(log, "CHECK FAILED:", err)
	}
	if !checks.ok() {
		failed = attempted
	}
	fmt.Fprintf(log, "operations: %d attempted, %d failed\n", attempted, failed)
	return &result{
		Correct:   checks.ok() && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
}
