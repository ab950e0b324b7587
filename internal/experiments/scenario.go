// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (§V), plus the ablation studies
// called out in DESIGN.md. Each harness assembles traffic sources, a
// scheduler (FlowValve on the NIC model, or a software baseline on the
// host model), and the measurement instruments, runs the discrete-event
// simulation, and returns printable results.
//
// Every backend — FlowValve on the SmartNIC model, kernel HTB, kernel
// PRIO, the DPDK QoS Scheduler — is driven through the same
// dataplane.Qdisc interface by one shared runner (runQdiscTCP); a run
// differs from another only in its qdiscBuilder. Backend capabilities
// beyond enqueueing (host CPU accounting, telemetry) are discovered via
// the dataplane capability probes, so adding a backend never touches the
// harness.
package experiments

import (
	"fmt"

	"flowvalve/internal/classifier"
	"flowvalve/internal/clock"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/faults"
	"flowvalve/internal/nic"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
	"flowvalve/internal/stats"
	"flowvalve/internal/tcp"
	"flowvalve/internal/telemetry"
	"flowvalve/internal/token"
)

// AppSpec describes one application's traffic in a TCP scenario.
type AppSpec struct {
	// App is the application / virtual-function index.
	App int
	// Conns is the number of parallel TCP connections.
	Conns int
	// StartNs / StopNs bound the sending period (StopNs 0 = run to the
	// end).
	StartNs int64
	StopNs  int64
}

// TCPScenario is a closed-loop experiment: applications with staged TCP
// connections driven against one scheduler.
type TCPScenario struct {
	// DurationNs is the simulated time.
	DurationNs int64
	// BinNs is the throughput-series bin width (default 1s).
	BinNs int64
	// SegBytes is the TCP segment size handed to the NIC (TSO-style
	// super-segments by default — see the tcp package).
	SegBytes int
	// BaseRTTNs is the flows' path RTT.
	BaseRTTNs int64
	// Apps lists the applications.
	Apps []AppSpec

	// Tree and Rules define the policy (compile them with fvconf or
	// build directly).
	Tree  *tree.Tree
	Rules []classifier.Rule
	// DefaultClass absorbs unmatched traffic (may be empty).
	DefaultClass string

	// NIC configures the SmartNIC model (FlowValve runs); zero takes
	// defaults.
	NIC nic.Config
	// FlowCache sizes the exact-match flow cache of FlowValve runs; the
	// zero value takes the classifier defaults.
	FlowCache classifier.CacheConfig
	// Sched configures the FlowValve scheduler; zero takes defaults.
	Sched core.Config
	// Shards, when positive, runs the FlowValve scheduler through the
	// sharded engine with that many shards (1 reproduces the plain
	// scheduler's decisions through the sharded code path). Zero keeps
	// the plain single-engine scheduler.
	Shards int
	// MeasureLatency records per-packet one-way delay when true.
	MeasureLatency bool
	// Telemetry, when non-nil, receives the scheduler's and NIC model's
	// metric families (the baselines register theirs under the same
	// family names with a distinguishing scheduler label).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil alongside Telemetry, samples FlowValve
	// scheduling decisions into its ring buffer.
	Tracer *telemetry.Tracer
	// SampleRatesNs, when positive, samples every class's granted rate
	// θ and measured rate Γ on this period — the token-rate dynamics
	// behind the figures (Fig 6/10 style curves).
	SampleRatesNs int64

	// Faults, when non-nil, injects the plan's timed faults into the
	// backend. Backends that do not implement dataplane.FaultInjectable
	// (the software baselines) run the scenario fault-free — the probe
	// skips them so comparative sweeps keep working with a plan set.
	Faults *faults.Plan
	// Watchdog overrides the graceful-degradation watchdog's thresholds
	// (nil takes defaults derived from the scheduler's epoch length).
	Watchdog *core.WatchdogConfig
	// WatchdogOff disables the watchdog even when faults are injected —
	// the ablation that shows what degradation looks like without it.
	WatchdogOff bool

	// inj carries the armed injector from the runner to the builder so
	// the builder can register the jitter clock and size the watchdog.
	inj *faults.Injector
}

func (sc *TCPScenario) defaults() {
	if sc.BinNs <= 0 {
		sc.BinNs = 1e9
	}
	if sc.SegBytes <= 0 {
		sc.SegBytes = 16 * 1024
	}
	if sc.BaseRTTNs <= 0 {
		sc.BaseRTTNs = 200_000
	}
}

// Result bundles the measurements of one scenario run.
type Result struct {
	// Meter holds per-app throughput series keyed "app<N>".
	Meter *stats.ThroughputMeter
	// Latency holds one-way delay samples (nil unless requested).
	Latency *stats.LatencyRecorder
	// Qdisc holds the backend-independent enqueue/deliver/drop counters.
	Qdisc dataplane.Stats
	// NICStats is set for FlowValve runs.
	NICStats nic.Stats
	// Sched is the FlowValve scheduler (for snapshots); nil for
	// baselines.
	Sched *core.Scheduler
	// ShardSched is the sharded FlowValve engine when the scenario set
	// Shards > 0 (Sched is then nil).
	ShardSched *core.ShardedScheduler
	// CoresUsed is the host CPU cores consumed by a software baseline
	// over the run (0 for FlowValve — scheduling is offloaded).
	CoresUsed float64
	// DurationNs echoes the simulated time.
	DurationNs int64
	// Rates holds sampled per-class token-rate dynamics, keyed by class
	// name (only when TCPScenario.SampleRatesNs was set).
	Rates map[string][]RateSample
	// Faults reports the injected-fault counters (nil when the scenario
	// ran fault-free or the backend is not fault-injectable).
	Faults *faults.Stats
	// Watchdog is the graceful-degradation watchdog (nil unless faults
	// were injected into a FlowValve run with the watchdog enabled).
	Watchdog *core.Watchdog
	// FlowCache is the backend's flow-cache snapshot at the end of the
	// run (nil for backends without an observable cache).
	FlowCache *dataplane.FlowCacheStats

	// finish runs after the simulation ends, in registration order —
	// builders use it to harvest backend-specific stats.
	finish []func()
}

// RateSample is one telemetry point of a class's rate state.
type RateSample struct {
	AtNs     int64
	ThetaBps float64
	GammaBps float64
}

// AppSeries returns the throughput series name of app n.
func AppSeries(n int) string { return fmt.Sprintf("app%d", n) }

// qdiscBuilder assembles one backend as a dataplane.Qdisc wired to the
// harness callbacks. Builders record backend-specific handles on res
// (res.Sched, res.finish).
type qdiscBuilder func(eng *sim.Engine, sc *TCPScenario, cb dataplane.Callbacks, res *Result) (dataplane.Qdisc, error)

// runQdiscTCP is the single TCP-scenario runner: it builds the traffic,
// instruments, and backend, runs the DES, and harvests results. All
// backend variation lives in the builder; everything the runner needs
// beyond Enqueue it discovers through the dataplane capability probes.
func runQdiscTCP(sc TCPScenario, build qdiscBuilder) (*Result, error) {
	sc.defaults()
	if sc.Tree == nil {
		return nil, fmt.Errorf("experiments: scenario has no scheduling tree")
	}
	eng := sim.New()

	res := &Result{
		Meter:      stats.NewThroughputMeter(sc.BinNs),
		DurationNs: sc.DurationNs,
	}
	if sc.MeasureLatency {
		res.Latency = stats.NewLatencyRecorder()
	}
	flows := tcp.NewSet()
	alloc := &packet.Alloc{}
	cb := recycling(alloc, dataplane.Callbacks{
		OnDeliver: func(p *packet.Packet) {
			res.Meter.Add(AppSeries(int(p.App)), p.Size, p.EgressAt)
			if res.Latency != nil {
				res.Latency.Record(p.EgressAt - p.SentAt)
			}
			flows.OnDeliver(p)
		},
		OnDrop: flows.OnDrop,
	})

	if sc.Faults != nil {
		inj, err := faults.NewInjector(eng, *sc.Faults)
		if err != nil {
			return nil, err
		}
		sc.inj = inj
	}

	q, err := build(eng, &sc, cb, res)
	if err != nil {
		return nil, err
	}
	if sc.Telemetry != nil {
		if sink, ok := q.(dataplane.TelemetrySink); ok {
			sink.AttachTelemetry(sc.Telemetry)
		}
	}
	if sc.inj != nil {
		if fi, ok := q.(dataplane.FaultInjectable); ok {
			if err := fi.ApplyFaults(sc.inj); err != nil {
				return nil, err
			}
			if err := sc.inj.Arm(); err != nil {
				return nil, err
			}
			sc.inj.AttachTelemetry(sc.Telemetry)
			inj := sc.inj
			res.finish = append(res.finish, func() {
				st := inj.Stats()
				res.Faults = &st
			})
		}
		// Backends without the probe (software baselines) run the
		// scenario fault-free; res.Faults stays nil to signal it.
	}

	if err := buildFlows(eng, sc, flows, alloc, q.Enqueue); err != nil {
		return nil, err
	}
	if res.Sched != nil && sc.SampleRatesNs > 0 {
		sched := res.Sched
		res.Rates = make(map[string][]RateSample)
		var sample func()
		sample = func() {
			now := eng.Now()
			for _, c := range sc.Tree.Classes() {
				res.Rates[c.Name] = append(res.Rates[c.Name], RateSample{
					AtNs:     now,
					ThetaBps: sched.Theta(c),
					GammaBps: sched.Gamma(c),
				})
			}
			if now+sc.SampleRatesNs <= sc.DurationNs {
				eng.After(sc.SampleRatesNs, sample)
			}
		}
		eng.After(sc.SampleRatesNs, sample)
	}

	eng.RunUntil(sc.DurationNs)

	res.Qdisc = q.QdiscStats()
	if acct, ok := q.(dataplane.HostAccountant); ok {
		res.CoresUsed = acct.HostCores(sc.DurationNs)
	}
	if fc, ok := q.(dataplane.FlowCacher); ok {
		st := fc.FlowCacheStats()
		res.FlowCache = &st
	}
	for _, f := range res.finish {
		f()
	}
	return res, nil
}

// buildFlowValve assembles the offloaded path: classifier + FlowValve
// core on the SmartNIC model. sched may be nil for the forward-only
// baseline.
func buildFlowValve(eng *sim.Engine, sc *TCPScenario, cb dataplane.Callbacks, res *Result, withSched bool) (dataplane.Qdisc, error) {
	cls, err := classifier.NewSized(sc.Tree, sc.Rules, sc.DefaultClass, sc.FlowCache)
	if err != nil {
		return nil, err
	}
	var sched *core.Scheduler
	var ssched *core.ShardedScheduler
	if withSched {
		// The scheduler reads the engine clock — unless the fault plan
		// jitters it, in which case the scheduler sees the perturbed
		// time while the DES keeps its own causally-ordered clock.
		var clk clock.Clock = eng.Clock()
		if sc.inj != nil {
			p := sc.inj.Plan()
			if p.Has(faults.KindClockJitter) {
				jc := token.NewJitteredClock(clk)
				sc.inj.Register(jc)
				clk = jc
			}
		}
		if sc.Shards > 0 {
			// Sharded engine: shards are drained inline within each NIC
			// service event, so runs stay deterministic. The watchdog
			// monitors a single engine's epoch health and does not apply
			// here — the reconciler owns cross-shard recovery.
			ssched, err = core.NewSharded(sc.Tree, clk, sc.Sched, core.ShardConfig{Shards: sc.Shards})
			if err != nil {
				return nil, err
			}
			if sc.Telemetry != nil {
				ssched.AttachTelemetry(sc.Telemetry, sc.Tracer)
			}
			res.ShardSched = ssched
			dev, err := nic.New(eng, sc.NIC, cls, ssched, nicCallbacks(cb))
			if err != nil {
				return nil, err
			}
			res.finish = append(res.finish, func() { res.NICStats = dev.Stats() })
			return dev, nil
		}
		sched, err = core.New(sc.Tree, clk, sc.Sched)
		if err != nil {
			return nil, err
		}
		// The scheduler is a separate telemetry source from the NIC
		// (the runner's probe attaches the NIC's); it also takes the
		// decision tracer, which is scheduler-specific.
		if sc.Telemetry != nil {
			sched.AttachTelemetry(sc.Telemetry, sc.Tracer)
		}
		res.Sched = sched

		// Faulted runs get the graceful-degradation watchdog unless the
		// ablation turns it off; its poll loop is a periodic DES event.
		if sc.inj != nil && !sc.WatchdogOff {
			var wcfg core.WatchdogConfig
			if sc.Watchdog != nil {
				wcfg = *sc.Watchdog
			}
			wd := core.NewWatchdog(sched, wcfg)
			if sc.Telemetry != nil {
				wd.AttachTelemetry(sc.Telemetry)
			}
			res.Watchdog = wd
			interval := wd.PollIntervalNs()
			var poll func()
			poll = func() {
				wd.Poll()
				if eng.Now()+interval <= sc.DurationNs {
					eng.After(interval, poll)
				}
			}
			eng.After(interval, poll)
		}
	}
	dev, err := nic.New(eng, sc.NIC, cls, schedOrNil(sched), nicCallbacks(cb))
	if err != nil {
		return nil, err
	}
	res.finish = append(res.finish, func() { res.NICStats = dev.Stats() })
	return dev, nil
}

// schedOrNil converts a possibly-nil *core.Scheduler to the interface
// without producing a non-nil interface holding a nil pointer.
func schedOrNil(s *core.Scheduler) dataplane.Scheduler {
	if s == nil {
		return nil
	}
	return s
}

// RunFlowValveTCP executes a TCP scenario against FlowValve on the
// SmartNIC model.
func RunFlowValveTCP(sc TCPScenario) (*Result, error) {
	return runQdiscTCP(sc, func(eng *sim.Engine, sc *TCPScenario, cb dataplane.Callbacks, res *Result) (dataplane.Qdisc, error) {
		return buildFlowValve(eng, sc, cb, res, true)
	})
}

// runForwardOnlyTCP executes a TCP scenario against the NIC model with
// no scheduler attached — the paper's "disable FlowValve to simply
// forward packets" baseline. Congestion control is then provided solely
// by the traffic manager's tail drop.
func runForwardOnlyTCP(sc TCPScenario) (*Result, error) {
	return runQdiscTCP(sc, func(eng *sim.Engine, sc *TCPScenario, cb dataplane.Callbacks, res *Result) (dataplane.Qdisc, error) {
		return buildFlowValve(eng, sc, cb, res, false)
	})
}

// buildFlows creates the per-app TCP connections and their start/stop
// schedule, drawing packets from alloc and sending them via inject.
func buildFlows(eng *sim.Engine, sc TCPScenario, flows *tcp.Set, alloc *packet.Alloc, inject func(*packet.Packet)) error {
	nextFlow := packet.FlowID(0)
	for _, app := range sc.Apps {
		if app.Conns <= 0 {
			return fmt.Errorf("experiments: app %d has no connections", app.App)
		}
		for c := 0; c < app.Conns; c++ {
			f, err := tcp.NewFlow(eng, alloc, nextFlow, packet.AppID(app.App), tcp.Config{
				SegBytes:  sc.SegBytes,
				BaseRTTNs: sc.BaseRTTNs,
			}, inject)
			if err != nil {
				return err
			}
			nextFlow++
			flows.Add(f)
			f.StartAt(app.StartNs)
			stop := app.StopNs
			if stop <= 0 {
				stop = sc.DurationNs
			}
			f.StopAt(stop)
		}
	}
	return nil
}

// MeanWindowBps returns an app's mean rate over [fromNs, toNs).
func (r *Result) MeanWindowBps(app int, fromNs, toNs int64) float64 {
	return r.Meter.MeanBps(AppSeries(app), fromNs, toNs)
}
