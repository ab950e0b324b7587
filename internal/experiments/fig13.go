package experiments

import (
	"fmt"
	"strings"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/dpdkqos"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/host"
	"flowvalve/internal/nic"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
	"flowvalve/internal/trafficgen"
)

// Fig13Row is one row of the paper's Fig 13 table: maximum throughput of
// FlowValve versus the DPDK QoS Scheduler when enforcing fair queueing at
// a fixed packet size.
type Fig13Row struct {
	SizeBytes int
	// FlowValveMpps is the NIC-offloaded rate (host cores: 0).
	FlowValveMpps float64
	// DPDKMpps is the software rate on DPDKCores dedicated poll-mode
	// cores.
	DPDKMpps  float64
	DPDKCores int
	// DPDKCoresToMatch is how many host cores the DPDK scheduler would
	// need to equal FlowValve's rate (0 when even the full host
	// cannot) — the paper's "comes up to using eight CPU cores".
	DPDKCoresToMatch int
}

// Fig13Sizes is the packet-size sweep of the paper's table.
var Fig13Sizes = []int{64, 128, 256, 512, 1024, 1518}

// fig13DPDKCores reproduces the core counts of the paper's setup: small
// packets got four scheduler cores, large packets fewer.
var fig13DPDKCores = map[int]int{
	64: 4, 128: 4, 256: 4, 512: 2, 1024: 2, 1518: 1,
}

// Fig13 measures maximum throughput for every packet size. durationNs is
// the measurement window per point after a warm-up of the same length
// (50ms each is plenty for steady state).
func Fig13(durationNs int64) ([]Fig13Row, error) {
	if durationNs <= 0 {
		durationNs = 50 * 1e6
	}
	rows := make([]Fig13Row, 0, len(Fig13Sizes))
	hostCPU := host.New(host.Config{Cores: 16}) // hypothetical-match pool
	for _, size := range Fig13Sizes {
		fv, err := fig13FlowValve(size, durationNs)
		if err != nil {
			return nil, fmt.Errorf("fig13 flowvalve %dB: %w", size, err)
		}
		cores := fig13DPDKCores[size]
		dp, err := fig13DPDK(size, cores, durationNs)
		if err != nil {
			return nil, fmt.Errorf("fig13 dpdk %dB: %w", size, err)
		}
		row := Fig13Row{
			SizeBytes:     size,
			FlowValveMpps: fv / 1e6,
			DPDKMpps:      dp / 1e6,
			DPDKCores:     cores,
		}
		if n, err := hostCPU.CoresFor(1015, fv); err == nil {
			row.DPDKCoresToMatch = n
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// linePps is the theoretical wire packet rate at 40Gbps for a frame size.
func linePps(size int) float64 {
	return 40e9 / float64((size+packet.WireOverhead)*8)
}

// fig13FlowValve saturates the NIC model with fixed-size packets under
// the fair-queueing policy and returns delivered packets/second. The
// NIC is driven and measured purely through the dataplane interface —
// the same path and counter as every other backend.
func fig13FlowValve(size int, durationNs int64) (float64, error) {
	return fig13FlowValveBatched(size, durationNs, 0)
}

// fig13FlowValveBatched is fig13FlowValve with an explicit NIC service
// batch size (0 = model default of 1).
func fig13FlowValveBatched(size int, durationNs int64, batch int) (float64, error) {
	script, err := fvconf.Parse(fvconf.FairQueueScript("40gbit", 4))
	if err != nil {
		return 0, err
	}
	t, rules, err := script.Compile()
	if err != nil {
		return 0, err
	}
	eng := sim.New()
	cls, err := classifier.New(t, rules, script.DefaultClass)
	if err != nil {
		return 0, err
	}
	sched, err := core.New(t, eng.Clock(), core.Config{})
	if err != nil {
		return 0, err
	}

	warm := durationNs
	counter := &DeliveredCounter{WarmNs: warm}
	alloc := &packet.Alloc{}
	dev, err := nic.New(eng, nic.Config{WireRateBps: 40e9, WirePorts: 4, BatchSize: batch},
		cls, sched, nicCallbacks(recycling(alloc, counter.Callbacks())))
	if err != nil {
		return 0, err
	}
	var q dataplane.Qdisc = dev

	// Offered load: 30% above both possible bottlenecks.
	cfg := dev.Config()
	procPps := float64(cfg.Cores) * cfg.CoreFreqHz / float64(cfg.Costs.PerPacket(2))
	offeredPps := 1.3 * min(linePps(size), procPps)
	offeredBps := offeredPps * float64(size) * 8

	if err := saturate4(eng, alloc, size, offeredBps, warm+durationNs, q.Enqueue); err != nil {
		return 0, err
	}
	eng.RunUntil(warm + durationNs)
	return counter.Pps(durationNs), nil
}

// saturate4 sprays fixed-size packets from four apps at offeredBps total,
// with the apps' emit phases staggered by a quarter interval each —
// phase-locked sources would bias systematic drop patterns against the
// last app in every burst.
func saturate4(eng *sim.Engine, alloc *packet.Alloc, size int, offeredBps float64, stopNs int64, send func(*packet.Packet)) error {
	intervalNs := int64(float64(size*8) / (offeredBps / 4) * 1e9)
	for app := 0; app < 4; app++ {
		flows := make([]packet.FlowID, 4)
		for i := range flows {
			flows[i] = packet.FlowID(app*4 + i)
		}
		start := int64(app) * intervalNs / 4
		if _, err := trafficgen.NewSaturator(eng, alloc, flows, packet.AppID(app), size,
			offeredBps/4, start, stopNs, send); err != nil {
			return err
		}
	}
	return nil
}

// fig13DPDK saturates the DPDK QoS model on the given core count,
// driven and measured through the same dataplane interface and counter
// as the offloaded run.
func fig13DPDK(size, cores int, durationNs int64) (float64, error) {
	eng := sim.New()
	cfg := dpdkqos.Config{
		LinkRateBps: 40e9,
		Cores:       cores,
		Pipes: []dpdkqos.PipeConfig{
			{RateBps: 10e9}, {RateBps: 10e9}, {RateBps: 10e9}, {RateBps: 10e9},
		},
	}.Defaults()
	warm := durationNs
	counter := &DeliveredCounter{WarmNs: warm}
	alloc := &packet.Alloc{}
	sched, err := dpdkqos.New(eng, cfg,
		func(p *packet.Packet) int { return int(p.App) },
		recycling(alloc, counter.Callbacks()))
	if err != nil {
		return 0, err
	}
	var q dataplane.Qdisc = sched

	cpu := host.New(cfg.Host)
	procPps := cpu.Capacity(float64(cfg.CyclesPerPkt), cores)
	offeredPps := 1.3 * min(linePps(size), procPps)
	offeredBps := offeredPps * float64(size) * 8

	if err := saturate4(eng, alloc, size, offeredBps, warm+durationNs, q.Enqueue); err != nil {
		return 0, err
	}
	eng.RunUntil(warm + durationNs)
	return counter.Pps(durationNs), nil
}

// FormatFig13 renders the table next to the paper's reference points.
func FormatFig13(rows []Fig13Row) string {
	var sb strings.Builder
	sb.WriteString("Fig 13 — maximum throughput, fair queueing (Mpps)\n")
	sb.WriteString(fmt.Sprintf("%8s %12s %12s %6s %14s\n",
		"size(B)", "FlowValve", "DPDK QoS", "cores", "cores-to-match"))
	for _, r := range rows {
		match := "-"
		if r.DPDKCoresToMatch > 0 {
			match = fmt.Sprintf("%d", r.DPDKCoresToMatch)
		}
		sb.WriteString(fmt.Sprintf("%8d %12.2f %12.2f %6d %14s\n",
			r.SizeBytes, r.FlowValveMpps, r.DPDKMpps, r.DPDKCores, match))
	}
	sb.WriteString("paper:  1518B 3.23 vs 2.25@1c · 1024B 4.75 vs 4.49@2c · 64B 19.69 vs 9.06@4c (≈8 cores to match)\n")
	return sb.String()
}
