package nic

import (
	"fmt"

	"flowvalve/internal/dataplane"
	"flowvalve/internal/host"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
)

// SlowPathConfig models the host slow path behind the offload control
// plane: the CPU budget un-offloaded mice are charged against, the
// qdisc that schedules them on the host, and the detour a slow-path
// packet takes through the host before re-entering the NIC's transmit
// path. Zero fields take the defaults noted on each field.
type SlowPathConfig struct {
	// Host is the CPU the slow path runs on (host.Config defaults:
	// the paper's 8-core 2.3GHz testbed).
	Host host.Config
	// CyclesPerPkt is the host cost of one slow-path packet — flow
	// lookup in the software table, scheduling, and the Tx descriptor
	// back to the NIC (default 3200, the software-scheduler class of
	// per-packet cost).
	CyclesPerPkt float64
	// MaxWaitNs bounds the slow-path queueing delay at admission: a
	// packet whose projected wait exceeds the bound is shed
	// (DropSlowPath) instead of growing the backlog without bound
	// (default 1ms). The bound is inclusive-serve — a packet whose
	// projected wait equals MaxWaitNs exactly is still served; only
	// wait > MaxWaitNs sheds.
	MaxWaitNs int64
	// DetourNs is the fixed PCIe round trip of the detour — NIC→host
	// DMA plus the host→NIC re-injection (default 30µs).
	DetourNs int64
	// Qdisc selects the scheduler the slow path runs over the policy
	// class tree: SlowQdiscHTB (default) or SlowQdiscPrio. Either way
	// non-offloaded flows are classified into the same class hierarchy
	// the fast path enforces and scheduled under the host CPU's
	// per-packet service floor.
	Qdisc string
	// QueuePkts bounds each slow-path class queue (default 512).
	QueuePkts int
	// ReinjectBps is the host→NIC re-injection bandwidth the slow
	// path's drain feeds (default 50e9 — PCIe-class).
	ReinjectBps float64
}

// Defaults fills unset fields. It is idempotent: applying it to its own
// output returns the same configuration.
func (c SlowPathConfig) Defaults() SlowPathConfig {
	c.Host = c.Host.Defaults()
	if c.CyclesPerPkt <= 0 {
		c.CyclesPerPkt = 3200
	}
	if c.MaxWaitNs <= 0 {
		c.MaxWaitNs = 1_000_000
	}
	if c.DetourNs <= 0 {
		c.DetourNs = 30_000
	}
	if c.Qdisc == "" {
		c.Qdisc = SlowQdiscHTB
	}
	if c.QueuePkts <= 0 {
		c.QueuePkts = 512
	}
	if c.ReinjectBps <= 0 {
		c.ReinjectBps = 50e9
	}
	return c
}

// offloadState is the NIC side of the offload control plane: the
// controller, the scheduled host slow path behind it, and the CPU
// accountant the slow path charges.
type offloadState struct {
	ctl *offload.Controller
	cpu *host.CPU
	cfg SlowPathConfig
	sp  *slowPath
	// invalidations counts flow-cache tombstones written on demotion.
	invalidations uint64
}

// AttachOffload puts the offload control plane in front of the fast
// path: from now on only flows holding a rule installed by ctl ride the
// NIC pipeline at full speed; every other classified packet detours
// through the scheduled host slow path — a real qdisc over the same
// policy class tree — and re-enters the NIC transmit path, or is shed
// per class when its projected wait exceeds the bound. The NIC chains
// ctl's demotion hook to the classifier's targeted invalidation (the
// prior hook keeps firing after the NIC's), so a demoted flow's next
// packet re-resolves instead of hitting a stale fast-path cache entry,
// and feeds the slow path's congestion signals (backlog, shed rate,
// host utilization) into ctl's threshold policy every tick.
//
// Call before AttachTelemetry so the fv_offload_* family registers with
// the NIC's registry. The controller's periodic tick is armed here on
// the NIC's engine; Tick must not be driven externally afterwards.
func (n *NIC) AttachOffload(ctl *offload.Controller, cfg SlowPathConfig) error {
	if ctl == nil {
		return fmt.Errorf("nic: nil offload controller")
	}
	if n.off != nil {
		return fmt.Errorf("nic: offload control plane already attached")
	}
	cfg = cfg.Defaults()
	sp, err := newSlowPath(n.eng, n.cls.Tree(), cfg, n.txEnqueue)
	if err != nil {
		return err
	}
	st := &offloadState{
		ctl: ctl,
		cpu: sp.cpu,
		cfg: cfg,
		sp:  sp,
	}

	prev := ctl.DemoteHook()
	ctl.SetDemoteHook(func(app packet.AppID, flow packet.FlowID) {
		n.cls.Invalidate(app, flow)
		st.invalidations++
		if prev != nil {
			prev(app, flow)
		}
	})
	ctl.SetSlowPathSignals(sp.signals)

	n.off = st
	n.eng.Schedule(n.eng.Now()+ctl.TickNs(), (*offloadTickEvent)(n), 0)
	return nil
}

// offloadTick runs one control-plane pass and charges the rule-channel
// work to the worker budget: installs and evictions execute on the same
// micro-engines that forward packets, which is what bounds the
// insertion rate in the first place.
func (n *NIC) offloadTick() {
	rep := n.off.ctl.Tick(n.eng.Now())
	cycles := n.cfg.Costs.RuleInstall*int64(rep.Installs) +
		n.cfg.Costs.RuleEvict*int64(rep.Demotions)
	if cycles > 0 {
		n.stats.BusyCycles += float64(cycles)
		if n.tel != nil {
			n.tel.busyCycles.Add(cycles)
		}
	}
	n.eng.Schedule(n.eng.Now()+n.off.ctl.TickNs(), (*offloadTickEvent)(n), 0)
}

// offloadTickEvent is the control plane's periodic tick.
type offloadTickEvent NIC

func (e *offloadTickEvent) Fire(uint64) { (*NIC)(e).offloadTick() }

// HostCores implements dataplane.HostAccountant: the mean host cores
// burned by the slow path over the run (zero without an offload control
// plane — the pure-offload FlowValve claim).
func (n *NIC) HostCores(durationNs int64) float64 {
	if n.off == nil {
		return 0
	}
	return n.off.cpu.CoresUsed(durationNs)
}

// OffloadStats implements dataplane.Offloader.
func (n *NIC) OffloadStats() dataplane.OffloadStats {
	if n.off == nil {
		return dataplane.OffloadStats{}
	}
	s := n.off.ctl.Stats()
	return dataplane.OffloadStats{
		Enabled:          true,
		Offloaded:        s.Offloaded,
		TableCap:         s.TableCap,
		QueueDepth:       s.QueueDepth,
		QueueCap:         s.QueueCap,
		ThresholdBytes:   s.ThresholdBytes,
		SketchErrBytes:   s.SketchErrBytes,
		FastPkts:         s.FastPkts,
		SlowPkts:         s.SlowPkts,
		FastBytes:        s.FastBytes,
		SlowBytes:        s.SlowBytes,
		Installs:         s.Installs,
		Demotions:        s.Demotions,
		QueueDrops:       s.QueueDrops,
		StaleSkips:       s.StaleSkips,
		TableFull:        s.TableFull,
		SlowPathDrops:    n.stats.SlowPathDrops,
		Invalidations:    n.off.invalidations,
		SlowQdisc:        n.off.cfg.Qdisc,
		SlowBacklogPkts:  n.off.sp.backlogPkts,
		SlowMaxClassPkts: n.off.sp.maxClassBacklog(),
		SlowShed:         n.off.sp.shed,
		SlowQueueDrops:   n.off.sp.queueDrops,
		SlowReinjected:   n.off.sp.reinjected,
		Policy:           s.Policy,
	}
}

// SlowPathClasses implements dataplane.SlowPathReporter: the per-class
// slow-path backlog/shed/drop split, nil without an attached offload
// control plane.
func (n *NIC) SlowPathClasses() []dataplane.SlowClassStat {
	if n.off == nil {
		return nil
	}
	return n.off.sp.classStats()
}

var (
	_ dataplane.HostAccountant   = (*NIC)(nil)
	_ dataplane.Offloader        = (*NIC)(nil)
	_ dataplane.SlowPathReporter = (*NIC)(nil)
)
