package experiments

import (
	"fmt"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/host"
	"flowvalve/internal/nic"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
	"flowvalve/internal/stats"
)

// Fig13Point measures a single Fig 13 row (one packet size).
func Fig13Point(size int, durationNs int64) (Fig13Row, error) {
	if durationNs <= 0 {
		durationNs = 50e6
	}
	fv, err := fig13FlowValve(size, durationNs)
	if err != nil {
		return Fig13Row{}, err
	}
	cores := fig13DPDKCores[size]
	if cores == 0 {
		cores = 4
	}
	dp, err := fig13DPDK(size, cores, durationNs)
	if err != nil {
		return Fig13Row{}, err
	}
	row := Fig13Row{
		SizeBytes:     size,
		FlowValveMpps: fv / 1e6,
		DPDKMpps:      dp / 1e6,
		DPDKCores:     cores,
	}
	if n, err := host.New(host.Config{Cores: 16}).CoresFor(1015, fv); err == nil {
		row.DPDKCoresToMatch = n
	}
	return row, nil
}

// SingleClassConformance measures §IV-D single-class rate limiting: a
// class granted rateBps, offered offeredBps for durationNs, returning the
// relative error of the admitted rate against min(rate, offered).
func SingleClassConformance(rateBps, offeredBps float64, durationNs int64) (float64, error) {
	return ConformanceWithConfig(rateBps, offeredBps, durationNs, core.Config{})
}

// ConformanceWithConfig is SingleClassConformance with a custom scheduler
// configuration — the update-interval ablation.
func ConformanceWithConfig(rateBps, offeredBps float64, durationNs int64, cfg core.Config) (float64, error) {
	t, err := tree.NewBuilder().
		Root("root", rateBps).
		Add(tree.ClassSpec{Name: "A", Parent: "root"}).
		Build()
	if err != nil {
		return 0, err
	}
	eng := sim.New()
	s, err := core.New(t, eng.Clock(), cfg)
	if err != nil {
		return 0, err
	}
	lbl, _ := t.LabelByName("A")

	const size = 1500
	gap := int64(float64(size*8) / offeredBps * 1e9)
	if gap < 1 {
		gap = 1
	}
	var admitted int64
	var drive func()
	drive = func() {
		if eng.Now() >= durationNs {
			return
		}
		if s.Schedule(lbl, size).Verdict == core.Forward {
			admitted += size
		}
		eng.After(gap, drive)
	}
	eng.After(0, drive)
	eng.RunUntil(durationNs)

	measured := float64(admitted) * 8 / (float64(durationNs) / 1e9)
	target := min(rateBps, offeredBps)
	return stats.ConformanceError(measured, target), nil
}

// SoloAppThroughput runs one app's TCP traffic on the 40G fair-queueing
// policy, with or without the mutual borrow labels, and returns the mean
// Gbps — the shadow-bucket work-conservation ablation.
func SoloAppThroughput(borrowing bool) (float64, error) {
	var script string
	if borrowing {
		script = fvconf.FairQueueScript("40gbit", 4)
	} else {
		script = `
fv qdisc add dev nfp0 root handle 1: htb rate 40gbit default 1:10
fv class add dev nfp0 parent 1: classid 1:10 htb weight 1
fv class add dev nfp0 parent 1: classid 1:20 htb weight 1
fv class add dev nfp0 parent 1: classid 1:30 htb weight 1
fv class add dev nfp0 parent 1: classid 1:40 htb weight 1
fv filter add dev nfp0 parent 1: app 0 flowid 1:10
`
	}
	parsed, err := fvconf.Parse(script)
	if err != nil {
		return 0, err
	}
	t, rules, err := parsed.Compile()
	if err != nil {
		return 0, err
	}
	const duration = int64(1.5e9)
	res, err := RunFlowValveTCP(TCPScenario{
		DurationNs:   duration,
		BinNs:        duration / 10,
		Apps:         []AppSpec{{App: 0, Conns: 4}},
		Tree:         t,
		Rules:        rules,
		DefaultClass: parsed.DefaultClass,
		NIC:          nic.Config{WireRateBps: 40e9, WirePorts: 4},
	})
	if err != nil {
		return 0, err
	}
	return res.MeanWindowBps(0, duration/5, duration) / 1e9, nil
}

// FlowCacheThroughput measures NIC packet rate at 64B with the exact-
// match flow cache enabled, or with every lookup paying the rule-walk
// cost (modelling its absence) — the paper's 10× classification-speed
// observation turned into a system-level ablation.
func FlowCacheThroughput(cached bool) (float64, error) {
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

	cfg := nic.Config{WireRateBps: 40e9, WirePorts: 4}
	if !cached {
		costs := nic.CostModel{}.Defaults()
		costs.CacheHit = costs.CacheMiss
		cfg.Costs = costs
	}
	const durationNs = int64(10e6)
	warm := durationNs
	counter := &DeliveredCounter{WarmNs: warm}
	alloc := &packet.Alloc{}
	dev, err := nic.New(eng, cfg, cls, sched, nicCallbacks(recycling(alloc, counter.Callbacks())))
	if err != nil {
		return 0, err
	}

	ecfg := dev.Config()
	procPps := float64(ecfg.Cores) * ecfg.CoreFreqHz / float64(ecfg.Costs.PerPacket(2))
	offeredBps := 1.3 * procPps * 64 * 8
	if err := saturate4(eng, alloc, 64, offeredBps, warm+durationNs, dev.Inject); err != nil {
		return 0, err
	}
	eng.RunUntil(warm + durationNs)
	return counter.Pps(durationNs) / 1e6, nil
}

// ExpiryRecovery measures how fast a residual-priority class recovers
// the pool after the prior class stops, under a given expiry threshold —
// the subprocedure-3 ablation. It returns the recovery time in
// milliseconds (until the low class's θ reaches 90% of the pool).
func ExpiryRecovery(expireAfterNs int64) (float64, error) {
	t, err := tree.NewBuilder().
		Root("root", 10e9).
		Add(tree.ClassSpec{Name: "hi", Parent: "root", Prio: 0}).
		Add(tree.ClassSpec{Name: "lo", Parent: "root", Prio: 1}).
		Build()
	if err != nil {
		return 0, err
	}
	eng := sim.New()
	s, err := core.New(t, eng.Clock(), core.Config{ExpireAfterNs: expireAfterNs})
	if err != nil {
		return 0, err
	}
	hiLbl, _ := t.LabelByName("hi")
	loLbl, _ := t.LabelByName("lo")
	lo, _ := t.Lookup("lo")

	const size = 1500
	hiRate := 9e9
	gap := int64(float64(size*8) / hiRate * 1e9)
	stopHi := int64(1e9)
	var drive func(lbl *tree.Label, until int64)
	drive = func(lbl *tree.Label, until int64) {
		if eng.Now() >= until {
			return
		}
		s.Schedule(lbl, size)
		eng.After(gap, func() { drive(lbl, until) })
	}
	eng.After(0, func() { drive(hiLbl, stopHi) })
	eng.After(gap/2, func() { drive(loLbl, 1<<62) })

	eng.RunUntil(stopHi)
	budget := 4*expireAfterNs + int64(1e9)
	step := int64(1e6)
	for elapsed := int64(0); elapsed < budget; elapsed += step {
		eng.RunUntil(stopHi + elapsed)
		if s.Theta(lo) >= 9e9 {
			return float64(elapsed) / 1e6, nil
		}
	}
	return 0, fmt.Errorf("experiments: lo never recovered with expiry %dms", expireAfterNs/1e6)
}

// ThreadSweepPoint measures the NIC's 64B packet rate with a given
// number of hardware thread contexts per micro-engine — the §III-B
// memory-latency-hiding ablation.
func ThreadSweepPoint(threads int, durationNs int64) (float64, error) {
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
	dev, err := nic.New(eng, nic.Config{WireRateBps: 40e9, WirePorts: 4, ThreadsPerME: threads},
		cls, sched, nicCallbacks(recycling(alloc, counter.Callbacks())))
	if err != nil {
		return 0, err
	}
	cfg := dev.Config()
	procPps := float64(cfg.Cores) * cfg.CoreFreqHz / float64(cfg.Costs.PerPacket(2))
	offeredBps := 1.3 * procPps * 64 * 8
	if err := saturate4(eng, alloc, 64, offeredBps, warm+durationNs, dev.Inject); err != nil {
		return 0, err
	}
	eng.RunUntil(warm + durationNs)
	return counter.Pps(durationNs) / 1e6, nil
}
