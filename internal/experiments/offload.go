package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"

	"flowvalve/internal/classifier"
	"flowvalve/internal/clock"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/faults"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/host"
	"flowvalve/internal/nic"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
	"flowvalve/internal/tcp"
	"flowvalve/internal/telemetry"
	"flowvalve/internal/token"
	"flowvalve/internal/trafficgen"
)

// OffloadScenario is the elephant/mice churn lab for the offload control
// plane: four apps share the 40G wire under the fair-queue policy, every
// app pushes a handful of saturating elephant flows, and two apps also
// churn through short-lived mouse flows faster than the rule channel
// could ever install them. Each policy row runs the identical seeded
// workload; the oracle row runs with no offload layer at all (every flow
// on the fast path — the pre-scale fiction the paper's prototype assumes)
// and anchors the enforcement-accuracy comparison.
type OffloadScenario struct {
	// DurationNs is the source active period (default 40ms); the run
	// continues briefly past it so queues drain.
	DurationNs int64
	// Seed drives the churn arrival processes (default 1).
	Seed uint64
	// ElephantsPerApp is the number of persistent heavy flows per app
	// (default 8).
	ElephantsPerApp int
	// ElephantBytes / MiceBytes are the frame sizes (defaults 1000/200).
	ElephantBytes, MiceBytes int
	// ChurnFlowsPerSec is the aggregate mouse-flow arrival rate, split
	// across the churn apps (default 200_000 — on the order of the rule
	// channel's entire install budget).
	ChurnFlowsPerSec float64
	// MicePkts is the mean packets per mouse flow (default 8).
	MicePkts float64
	// RuleRatePerSec is the rule-channel budget (default 220_000).
	RuleRatePerSec float64
	// TickNs overrides the controller's control-tick period (0 = the
	// controller default). Shorter ticks matter when mouse lifetimes
	// approach the tick: installs only land on tick boundaries.
	TickNs int64
	// InitialThresholdBytes overrides the controller's starting
	// threshold (0 = the controller default).
	InitialThresholdBytes uint64
	// TableCap is the NIC rule-table capacity (default 256).
	TableCap int
	// TCPFlowsPerApp is the number of closed-loop TCP elephants per app
	// (default 2). They start on the slow path like everything else, so
	// their ramp-up is gated on promotion latency: every slow-path shed
	// halves a window, and a slow install keeps the flow under the
	// host's service floor. Set negative to disable.
	TCPFlowsPerApp int
	// SlowHost is the host CPU behind the slow path (default 2 cores —
	// the cores FlowValve is supposed to save, now the mice's budget).
	SlowHost host.Config
	// SlowPath overrides slow-path tuning beyond the host CPU (Host is
	// always taken from SlowHost; zero fields take nic defaults).
	SlowPath nic.SlowPathConfig
	// Faults, when set, is injected into every row's run (chaos soak).
	Faults *faults.Plan
	// Telemetry, when set, receives each row's metric families.
	Telemetry *telemetry.Registry
}

func (sc *OffloadScenario) defaults() {
	if sc.DurationNs <= 0 {
		sc.DurationNs = 40e6
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.ElephantsPerApp <= 0 {
		sc.ElephantsPerApp = 8
	}
	if sc.ElephantBytes <= 0 {
		sc.ElephantBytes = 1000
	}
	if sc.MiceBytes <= 0 {
		sc.MiceBytes = 200
	}
	if sc.ChurnFlowsPerSec <= 0 {
		sc.ChurnFlowsPerSec = 200_000
	}
	if sc.MicePkts < 1 {
		sc.MicePkts = 8
	}
	if sc.RuleRatePerSec <= 0 {
		sc.RuleRatePerSec = 220_000
	}
	if sc.TableCap <= 0 {
		sc.TableCap = 256
	}
	if sc.TCPFlowsPerApp == 0 {
		sc.TCPFlowsPerApp = 2
	}
	if sc.SlowHost.Cores <= 0 {
		sc.SlowHost.Cores = 2
	}
}

// offloadApps is the fair-queue app count; churnApps of them (the last
// ones) carry the mouse churn on top of their elephants.
const (
	offloadApps = 4
	churnApps   = 2
	// tcpFlowBase keeps the closed-loop elephants' IDs clear of both the
	// open-loop elephants (small IDs) and the churn bases (0x100000+).
	tcpFlowBase = 0x80000
)

// OffloadRow is one threshold policy's scorecard.
type OffloadRow struct {
	// Name identifies the policy variant ("oracle" = no offload layer).
	Name string
	// Delivered/Dropped are the qdisc totals.
	Delivered, Dropped uint64
	// AppBps is each app's delivered goodput in bits/s of wire time.
	AppBps []float64
	// EnforcementErr is the mean absolute difference between this row's
	// per-app bandwidth shares and the oracle's (0 = identical split).
	EnforcementErr float64
	// OffloadFraction is the share of observed bytes that rode the fast
	// path (1 for the oracle by construction).
	OffloadFraction float64
	// SlowShare is the slow-path share of observed packets.
	SlowShare float64
	// ShedRate is the fraction of slow-path packets shed or dropped on
	// the scheduled slow path (0 for the oracle).
	ShedRate float64
	// HostCores is the mean host cores the slow path burned.
	HostCores float64
	// TCPGoodputBps is the aggregate ACKed goodput of the closed-loop
	// TCP elephants (0 when TCPFlowsPerApp disables them).
	TCPGoodputBps float64
	// MeanPromoteNs is the mean latency from a TCP elephant's start to
	// its first rule install (0 for the oracle, where every flow is
	// born on the fast path; -1 if no TCP flow was ever promoted).
	MeanPromoteNs float64
	// Offload is the control plane's end-of-run snapshot (zero-valued
	// with Enabled=false for the oracle).
	Offload dataplane.OffloadStats
	// TraceDigest fingerprints the delivery trace — the determinism
	// hook: identical scenarios must produce identical digests.
	TraceDigest uint64
	// Faults is the number of faults injected into this row's run (0
	// without a plan).
	Faults int64
}

// OffloadResult is the lab report.
type OffloadResult struct {
	Scenario OffloadScenario
	Rows     []OffloadRow
}

// blindAdaptive reproduces the congestion-blind adaptive policy of the
// previous revision: every slow-path watermark is parked above its
// signal's reachable range (a shed rate cannot exceed 1), so the
// controller sees only install-queue and table pressure.
func blindAdaptive() offload.Policy {
	return offload.NewAdaptive(offload.AdaptiveConfig{
		ShedHi: 2, HostHi: 1e9, BacklogHi: 1e9,
	})
}

// fedAdaptive is the congestion-fed controller under test: default
// watermarks, slow-path pain pulls the threshold down.
func fedAdaptive() offload.Policy {
	return offload.NewAdaptive(offload.AdaptiveConfig{})
}

// offloadPolicies returns the row specs: the oracle anchor first, then
// the threshold policies under test. A fresh Policy per run — policies
// are stateless today, but the contract doesn't promise it.
func offloadPolicies() []struct {
	name string
	pol  func() offload.Policy
} {
	return []struct {
		name string
		pol  func() offload.Policy
	}{
		{"oracle", nil},
		{"static-2k", func() offload.Policy { return offload.NewStatic(2 << 10) }},
		{"static-128k", func() offload.Policy { return offload.NewStatic(128 << 10) }},
		{"adaptive-blind", blindAdaptive},
		{"adaptive-fed", fedAdaptive},
	}
}

// RunOffload executes the lab: one independent seeded DES run per policy
// over the identical workload, then enforcement scoring against the
// oracle row.
func RunOffload(sc OffloadScenario) (*OffloadResult, error) {
	sc.defaults()
	res := &OffloadResult{Scenario: sc}
	for _, spec := range offloadPolicies() {
		var pol offload.Policy
		if spec.pol != nil {
			pol = spec.pol()
		}
		row, err := runOffloadRow(&sc, spec.name, pol)
		if err != nil {
			return nil, fmt.Errorf("experiments: offload %s: %w", spec.name, err)
		}
		res.Rows = append(res.Rows, *row)
	}

	// Enforcement error against the oracle (always row 0).
	oracleShare := shares(res.Rows[0].AppBps)
	for i := range res.Rows {
		res.Rows[i].EnforcementErr = shareDistance(shares(res.Rows[i].AppBps), oracleShare)
	}
	return res, nil
}

// runOffloadRow executes the shared workload against one policy variant
// (nil policy = oracle, no offload layer attached).
func runOffloadRow(sc *OffloadScenario, name string, pol offload.Policy) (*OffloadRow, error) {
	script, err := fvconf.Parse(fvconf.FairQueueScript("40gbit", offloadApps))
	if err != nil {
		return nil, err
	}
	t, rules, err := script.Compile()
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	cls, err := classifier.New(t, rules, script.DefaultClass)
	if err != nil {
		return nil, err
	}
	// The injector is built before the scheduler so a clock-jitter plan
	// can interpose on the clock the scheduler reads (the DES keeps its
	// own causally-ordered time).
	var inj *faults.Injector
	var clk clock.Clock = eng.Clock()
	if sc.Faults != nil {
		inj, err = faults.NewInjector(eng, *sc.Faults)
		if err != nil {
			return nil, err
		}
		if sc.Faults.Has(faults.KindClockJitter) {
			jc := token.NewJitteredClock(clk)
			inj.Register(jc)
			clk = jc
		}
	}
	sched, err := core.New(t, clk, core.Config{})
	if err != nil {
		return nil, err
	}

	row := &OffloadRow{Name: name, AppBps: make([]float64, offloadApps)}
	appBytes := make([]uint64, offloadApps)
	digest := fnv.New64a()
	tcpSet := tcp.NewSet()
	alloc := &packet.Alloc{}
	cb := recycling(alloc, dataplane.Callbacks{
		OnDeliver: func(p *packet.Packet) {
			appBytes[int(p.App)%offloadApps] += uint64(p.WireBytes())
			var buf [40]byte
			putDigest(buf[:], uint64(p.Flow), uint64(p.App), uint64(p.Seq), uint64(p.EgressAt), p.ID)
			digest.Write(buf[:])
			tcpSet.OnDeliver(p)
		},
		OnDrop: tcpSet.OnDrop,
	})
	dev, err := nic.New(eng, nic.Config{WireRateBps: 40e9, WirePorts: offloadApps}, cls, sched, nicCallbacks(cb))
	if err != nil {
		return nil, err
	}
	// tcpStart maps each closed-loop elephant to its start time; the
	// install hook consumes an entry on the flow's FIRST promotion, so
	// the mean measures cold-start promotion latency, not re-promotion.
	tcpStart := make(map[packet.FlowID]int64)
	var promoteSum float64
	var promoted int
	if pol != nil {
		ctl, err := offload.New(offload.Config{
			TableCap:              sc.TableCap,
			RulesPerSec:           sc.RuleRatePerSec,
			TickNs:                sc.TickNs,
			InitialThresholdBytes: sc.InitialThresholdBytes,
			Policy:                pol,
			OnInstall: func(app packet.AppID, flow packet.FlowID) {
				if start, ok := tcpStart[flow]; ok {
					promoteSum += float64(eng.Now() - start)
					promoted++
					delete(tcpStart, flow)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		spCfg := sc.SlowPath
		spCfg.Host = sc.SlowHost
		if err := dev.AttachOffload(ctl, spCfg); err != nil {
			return nil, err
		}
	}
	if sc.Telemetry != nil {
		dev.AttachTelemetry(sc.Telemetry)
	}
	if inj != nil {
		if err := dev.ApplyFaults(inj); err != nil {
			return nil, err
		}
		if err := inj.Arm(); err != nil {
			return nil, err
		}
	}

	var q dataplane.Qdisc = dev
	// Elephants: every app saturates its fair share and then some — the
	// aggregate offer is 1.25× the wire, so the scheduler must enforce.
	// Starts are staggered by a few hundred ns per app so the phase-locked
	// CBR emitters don't systematically bias the drop pattern against the
	// last-injected app.
	for app := 0; app < offloadApps; app++ {
		flows := make([]packet.FlowID, sc.ElephantsPerApp)
		for i := range flows {
			flows[i] = packet.FlowID(app*sc.ElephantsPerApp + i)
		}
		if _, err := trafficgen.NewSaturator(eng, alloc, flows, packet.AppID(app),
			sc.ElephantBytes, 1.25*40e9/offloadApps, int64(app)*977, sc.DurationNs, q.Enqueue); err != nil {
			return nil, err
		}
	}
	// Closed-loop TCP elephants: their ramp is gated on promotion — a
	// flow stuck on the slow path eats sheds (window halvings) and the
	// host's per-packet service floor until its rule installs.
	var tcpFlows []*tcp.Flow
	for app := 0; sc.TCPFlowsPerApp > 0 && app < offloadApps; app++ {
		for i := 0; i < sc.TCPFlowsPerApp; i++ {
			id := packet.FlowID(tcpFlowBase + app*256 + i)
			f, err := tcp.NewFlow(eng, alloc, id, packet.AppID(app),
				tcp.Config{SegBytes: sc.ElephantBytes}, q.Enqueue)
			if err != nil {
				return nil, err
			}
			tcpSet.Add(f)
			start := int64(app)*977 + int64(i+1)*3001
			tcpStart[id] = start
			f.StartAt(start)
			f.StopAt(sc.DurationNs)
			tcpFlows = append(tcpFlows, f)
		}
	}
	// Mice: the last churnApps apps also churn through short-lived
	// flows; IDs count up from per-app bases far above the elephants.
	for i := 0; i < churnApps; i++ {
		app := offloadApps - churnApps + i
		if _, err := trafficgen.NewChurn(eng, alloc, packet.AppID(app), sc.MiceBytes,
			sc.ChurnFlowsPerSec/churnApps, sc.MicePkts, 2_000,
			packet.FlowID(0x100000*(i+1)), 0, sc.DurationNs,
			sc.Seed+uint64(app)*1_000_003, q.Enqueue); err != nil {
			return nil, err
		}
	}
	eng.RunUntil(sc.DurationNs + 5e6)

	st := q.QdiscStats()
	row.Delivered = st.Delivered
	row.Dropped = st.Dropped
	for a := range appBytes {
		row.AppBps[a] = float64(appBytes[a]) * 8 / (float64(sc.DurationNs) / 1e9)
	}
	row.TraceDigest = digest.Sum64()
	off, ok := q.(dataplane.Offloader)
	if !ok {
		return nil, fmt.Errorf("NIC backend lost the Offloader probe")
	}
	row.Offload = off.OffloadStats()
	if row.Offload.Enabled {
		if tot := row.Offload.FastBytes + row.Offload.SlowBytes; tot > 0 {
			row.OffloadFraction = float64(row.Offload.FastBytes) / float64(tot)
		}
		if tot := row.Offload.FastPkts + row.Offload.SlowPkts; tot > 0 {
			row.SlowShare = float64(row.Offload.SlowPkts) / float64(tot)
		}
		if row.Offload.SlowPkts > 0 {
			row.ShedRate = float64(row.Offload.SlowPathDrops) / float64(row.Offload.SlowPkts)
		}
		if promoted > 0 {
			row.MeanPromoteNs = promoteSum / float64(promoted)
		} else if len(tcpFlows) > 0 {
			row.MeanPromoteNs = -1
		}
	} else {
		row.OffloadFraction = 1
	}
	for _, f := range tcpFlows {
		_, acked, _ := f.Counters()
		row.TCPGoodputBps += float64(acked) * float64(sc.ElephantBytes) * 8 /
			(float64(sc.DurationNs) / 1e9)
	}
	if acct, ok := q.(dataplane.HostAccountant); ok {
		row.HostCores = acct.HostCores(sc.DurationNs)
	}
	if inj != nil {
		row.Faults = inj.Stats().Total()
	}
	return row, nil
}

// FormatOffload renders the lab report for the CLI.
func FormatOffload(r *OffloadResult) string {
	sc := r.Scenario
	var sb strings.Builder
	fmt.Fprintf(&sb, "offload control plane — elephant/mice churn, 40G fair queue, %d apps (%d churning)\n",
		offloadApps, churnApps)
	fmt.Fprintf(&sb, "churn=%.0fk flows/s rule-budget=%.0fk/s table=%d slow-host=%d cores duration=%dms seed=%d\n",
		sc.ChurnFlowsPerSec/1e3, sc.RuleRatePerSec/1e3, sc.TableCap, sc.SlowHost.Cores,
		sc.DurationNs/1e6, sc.Seed)
	sb.WriteString("enforcement error is the per-app share distance from the oracle (no offload layer);\n")
	sb.WriteString("shed% is the slow-path drop fraction, promote the mean TCP cold-start install latency\n")
	fmt.Fprintf(&sb, "%-14s %10s %9s %8s %8s %7s %9s %9s %7s %9s %9s %7s  %s\n",
		"policy", "delivered", "dropped", "offload", "slow", "cores", "installs", "demotions",
		"shed%", "tcp-Mbps", "promote", "enf.err", "per-app Mbps")
	for _, row := range r.Rows {
		apps := make([]string, len(row.AppBps))
		for i, bps := range row.AppBps {
			apps[i] = fmt.Sprintf("%.0f", bps/1e6)
		}
		promote := "-"
		if row.MeanPromoteNs > 0 {
			promote = fmt.Sprintf("%.0fµs", row.MeanPromoteNs/1e3)
		} else if row.MeanPromoteNs < 0 {
			promote = "never"
		}
		fmt.Fprintf(&sb, "%-14s %10d %9d %7.1f%% %7.1f%% %7.2f %9d %9d %6.2f%% %9.0f %9s %7.4f  [%s]\n",
			row.Name, row.Delivered, row.Dropped, row.OffloadFraction*100, row.SlowShare*100,
			row.HostCores, row.Offload.Installs, row.Offload.Demotions,
			row.ShedRate*100, row.TCPGoodputBps/1e6, promote,
			row.EnforcementErr, strings.Join(apps, " "))
	}
	return sb.String()
}

// OffloadSweepPoint is one (rule-table capacity, churn rate) cell of the
// enforcement sweep: the congestion-blind adaptive policy of the prior
// revision against the congestion-fed one, both scored against the
// matching churn's oracle run.
type OffloadSweepPoint struct {
	TableCap         int
	ChurnFlowsPerSec float64
	Blind, Fed       OffloadRow
}

// OffloadSweepResult is the capacity × churn enforcement sweep report.
type OffloadSweepResult struct {
	Scenario OffloadScenario
	// Oracles holds one anchor row per churn rate, in churn order.
	Oracles []OffloadRow
	Points  []OffloadSweepPoint
}

// sweepDefaults fills unset fields with the sweep regime, then the lab
// defaults. The regime is tuned so the congestion signal is the live
// control knob rather than a bystander: mice live a few hundred µs
// (promotable within a 100µs control tick, unlike the headline lab's
// sub-tick mice), the aggregate mouse packet rate overloads the
// slow-path cores, and the threshold starts high — a blind controller
// whose table occupancy settles between its watermarks freezes there and
// never promotes the load off the pained host.
func (sc *OffloadScenario) sweepDefaults() {
	if sc.MicePkts == 0 {
		sc.MicePkts = 100
	}
	if sc.TickNs == 0 {
		sc.TickNs = 100_000
	}
	if sc.InitialThresholdBytes == 0 {
		sc.InitialThresholdBytes = 1 << 20
	}
	sc.defaults()
}

// RunOffloadSweep measures end-to-end enforcement error and slow-path
// shed rate across rule-table capacities and churn rates: per churn rate
// one oracle anchor (no offload layer), then per capacity a blind and a
// fed adaptive run over the identical seeded workload.
func RunOffloadSweep(sc OffloadScenario, tableCaps []int, churns []float64) (*OffloadSweepResult, error) {
	sc.sweepDefaults()
	if len(tableCaps) == 0 {
		tableCaps = []int{64, 128, 256}
	}
	// Churn rates are chosen to overload the slow-path cores (each
	// mouse is ~100 packets): promotion then removes arrivals from an
	// overloaded queue, so sheds fall faster than arrivals.
	if len(churns) == 0 {
		churns = []float64{40_000, 80_000, 160_000}
	}
	res := &OffloadSweepResult{Scenario: sc}
	for _, churn := range churns {
		csc := sc
		csc.ChurnFlowsPerSec = churn
		oracle, err := runOffloadRow(&csc, "oracle", nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: offload sweep oracle churn=%.0f: %w", churn, err)
		}
		res.Oracles = append(res.Oracles, *oracle)
		oracleShare := shares(oracle.AppBps)
		for _, cap := range tableCaps {
			psc := csc
			psc.TableCap = cap
			pt := OffloadSweepPoint{TableCap: cap, ChurnFlowsPerSec: churn}
			for _, v := range []struct {
				pol func() offload.Policy
				out *OffloadRow
			}{
				{blindAdaptive, &pt.Blind},
				{fedAdaptive, &pt.Fed},
			} {
				row, err := runOffloadRow(&psc, "", v.pol())
				if err != nil {
					return nil, fmt.Errorf("experiments: offload sweep cap=%d churn=%.0f: %w", cap, churn, err)
				}
				row.EnforcementErr = shareDistance(shares(row.AppBps), oracleShare)
				*v.out = *row
			}
			pt.Blind.Name = "adaptive-blind"
			pt.Fed.Name = "adaptive-fed"
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// FormatOffloadSweep renders the sweep for the CLI.
func FormatOffloadSweep(r *OffloadSweepResult) string {
	var sb strings.Builder
	sb.WriteString("offload enforcement sweep — congestion-blind vs congestion-fed adaptive threshold\n")
	sb.WriteString("enf.err vs the same-churn oracle; shed% = slow-path drops / slow-path packets\n")
	fmt.Fprintf(&sb, "%8s %7s  %9s %7s %9s %9s  %9s %7s %9s %9s\n",
		"churn/s", "table",
		"blind.err", "shed%", "promote", "thresh",
		"fed.err", "shed%", "promote", "thresh")
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "%8.0f %7d  %9.4f %6.2f%% %9s %9d  %9.4f %6.2f%% %9s %9d\n",
			pt.ChurnFlowsPerSec, pt.TableCap,
			pt.Blind.EnforcementErr, pt.Blind.ShedRate*100,
			promoteLabel(pt.Blind.MeanPromoteNs), pt.Blind.Offload.ThresholdBytes,
			pt.Fed.EnforcementErr, pt.Fed.ShedRate*100,
			promoteLabel(pt.Fed.MeanPromoteNs), pt.Fed.Offload.ThresholdBytes)
	}
	return sb.String()
}

func promoteLabel(ns float64) string {
	switch {
	case ns > 0:
		return fmt.Sprintf("%.0fµs", ns/1e3)
	case ns < 0:
		return "never"
	}
	return "-"
}

// shareDistance is the mean absolute per-app share difference.
func shareDistance(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(a))
}
