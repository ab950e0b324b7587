package experiments

import (
	"fmt"
	"strings"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/nic"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// ScaleRow is one platform in the §VI "Higher Line rate" projection:
// FlowValve's packet rates on a hypothetical NP as micro-engine count
// and frequency grow.
type ScaleRow struct {
	Label    string
	WireGbps float64
	Cores    int
	FreqMHz  float64
	// Mpps1518 / Mpps64 are measured maxima under the fair-queueing
	// policy.
	Mpps1518 float64
	Mpps64   float64
	// LineRate1518 reports whether 1518B traffic saturates the wire
	// (the paper's 8.33Mpps-at-100G argument).
	LineRate1518 bool
}

// scalePlatforms are the §VI what-if platforms: the calibrated Agilio CX
// 40GbE, the same silicon driving a 100G wire, and a plausible next-gen
// NP (more micro-engines at the 1.2GHz the paper quotes).
var scalePlatforms = []struct {
	label string
	cfg   nic.Config
}{
	{"Agilio-CX-40G (paper)", nic.Config{Cores: 50, CoreFreqHz: 800e6, WireRateBps: 40e9, WirePorts: 4}},
	{"same NP, 100G wire", nic.Config{Cores: 50, CoreFreqHz: 800e6, WireRateBps: 100e9, WirePorts: 4}},
	{"next-gen NP, 100G", nic.Config{Cores: 80, CoreFreqHz: 1.2e9, WireRateBps: 100e9, WirePorts: 4}},
}

// Scale100G measures the §VI projection rows.
func Scale100G(durationNs int64) ([]ScaleRow, error) {
	if durationNs <= 0 {
		durationNs = 20e6
	}
	rows := make([]ScaleRow, 0, len(scalePlatforms))
	for _, p := range scalePlatforms {
		row := ScaleRow{
			Label:    p.label,
			WireGbps: p.cfg.WireRateBps / 1e9,
			Cores:    p.cfg.Cores,
			FreqMHz:  p.cfg.CoreFreqHz / 1e6,
		}
		for _, size := range []int{1518, 64} {
			pps, err := maxRateOn(p.cfg, size, durationNs)
			if err != nil {
				return nil, fmt.Errorf("scale100g %s %dB: %w", p.label, size, err)
			}
			if size == 1518 {
				row.Mpps1518 = pps / 1e6
				line := p.cfg.WireRateBps / float64((1518+packet.WireOverhead)*8)
				row.LineRate1518 = pps >= 0.97*line
			} else {
				row.Mpps64 = pps / 1e6
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// maxRateOn measures the delivered packet rate of a saturated NIC under
// the fair-queueing policy at the platform's wire rate.
func maxRateOn(cfg nic.Config, size int, durationNs int64) (float64, error) {
	rate := fmt.Sprintf("%dgbit", int(cfg.WireRateBps/1e9))
	script, err := fvconf.Parse(fvconf.FairQueueScript(rate, 4))
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
	dev, err := nic.New(eng, cfg, cls, sched, nicCallbacks(recycling(alloc, counter.Callbacks())))
	if err != nil {
		return 0, err
	}
	ecfg := dev.Config()
	procPps := float64(ecfg.Cores) * ecfg.CoreFreqHz / float64(ecfg.Costs.PerPacket(2))
	linePps := ecfg.WireRateBps / float64((size+packet.WireOverhead)*8)
	offeredBps := 1.3 * min(linePps, procPps) * float64(size) * 8
	if err := saturate4(eng, alloc, size, offeredBps, warm+durationNs, dev.Inject); err != nil {
		return 0, err
	}
	eng.RunUntil(warm + durationNs)
	return counter.Pps(durationNs), nil
}

// FormatScale100G renders the projection table.
func FormatScale100G(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("§VI projection — FlowValve on higher-line-rate platforms\n")
	sb.WriteString(fmt.Sprintf("%-22s %6s %6s %8s %12s %10s %10s\n",
		"platform", "Gbps", "MEs", "MHz", "1518B Mpps", "line?", "64B Mpps"))
	for _, r := range rows {
		line := "no"
		if r.LineRate1518 {
			line = "yes"
		}
		sb.WriteString(fmt.Sprintf("%-22s %6.0f %6d %8.0f %12.2f %10s %10.2f\n",
			r.Label, r.WireGbps, r.Cores, r.FreqMHz, r.Mpps1518, line, r.Mpps64))
	}
	sb.WriteString("paper §VI: 100G at 1500B needs only 8.33Mpps — within the measured ≈20Mpps envelope\n")
	return sb.String()
}
