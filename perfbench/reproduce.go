package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"flowvalve"
	"flowvalve/internal/experiments"
	"flowvalve/internal/fvconf"
)

// reproduce runs the paper's evaluation on the discrete-event NP model:
// the Fig 11(a) motivation scenario through the public Scenario API, and
// the offload capacity × churn enforcement sweep. Both are the paper's
// fixed scenarios, so the seed does not change them (the sweep keeps its
// own default seed; see README.md).

// fig11aScale is the reproduction scale of Fig 11(a): the paper's 45 s
// timeline at 0.1 (4.5 simulated seconds; NC stops at 1.5 s, WS at 3 s).
const fig11aScale = 0.1

// fig11aTolGbps is the tolerance of a window mean around the policy's
// share (2.5 % of the 10 Gbit/s ceiling). The model reports goodput of
// TCP over the wire, about 1.6 % below the token rates.
const fig11aTolGbps = 0.25

// sweepDurationNs is the offload sweep's own default duration (fvsim
// -scale 1). At 2 ms the cell churn=40k/table=64 does not keep its
// property (fed 71.76 % against blind 71.64 %), so it is not shortened.
const sweepDurationNs = 20e6

// reproduceConfig is one round's scenario set; tests run a subset of
// the sweep's cells.
type reproduceConfig struct {
	tableCaps []int
	churns    []float64
}

var fullSweep = reproduceConfig{
	tableCaps: []int{64, 128, 256},
	churns:    []float64{40_000, 80_000, 160_000},
}

// roundResult is one round's timings and outcome.
type roundResult struct {
	fig11aNs  int64
	sweepNs   int64
	callNs    []float64 // one per scenario call: fig11a, then each churn rate
	ops       int64
	failed    int64
	sweepPkts uint64
}

// stage is one stage of the Fig 11(a) timeline with the apps active in
// it. The first 0.2 s of each stage are skipped while TCP converges.
type stage struct {
	from, to float64
	active   []bool
}

func fig11aStages() []stage {
	s := func(sec float64) float64 { return sec * fig11aScale }
	return []stage{
		{s(2), s(15), []bool{true, true, true, true}},
		{s(17), s(30), []bool{false, true, true, true}},
		{s(32), s(45), []bool{false, true, true, false}},
	}
}

// fig11aScenario is the Fig 11(a) motivation scenario at fig11aScale:
// all four apps start at 0, NC stops at 15 s and WS at 30 s (scaled).
func fig11aScenario() flowvalve.Scenario {
	return flowvalve.Scenario{
		Policy:      flowvalve.MotivationPolicy(),
		DurationSec: 45 * fig11aScale,
		WireGbps:    40,
		WirePorts:   4,
		Apps: []flowvalve.AppTraffic{
			{App: 0, Conns: 1, StopSec: 15 * fig11aScale},
			{App: 1, Conns: 1},
			{App: 2, Conns: 1},
			{App: 3, Conns: 1, StopSec: 30 * fig11aScale},
		},
	}
}

// runRound runs fig11a and the sweep once and checks both.
func runRound(sc flowvalve.Scenario, rc reproduceConfig, pol *scriptPolicy, checks *checkList, log io.Writer) (*roundResult, error) {
	rr := &roundResult{}
	t0 := time.Now()
	res, err := sc.Run()
	if err != nil {
		return nil, fmt.Errorf("fig11a: %w", err)
	}
	rr.fig11aNs = int64(time.Since(t0))
	rr.callNs = append(rr.callNs, float64(rr.fig11aNs))
	rr.ops++
	ok := true
	for _, w := range fig11aStages() {
		want := pol.expectedGbps(w.active)
		got := make([]float64, len(want))
		for a := range got {
			got[a] = res.AppGbps(a, w.from, w.to)
		}
		name := fmt.Sprintf("fig11a %.2f-%.2fs", w.from, w.to)
		fmt.Fprintf(log, "%s: got %.2f, policy %.2f Gbit/s\n", name, got, want)
		ok = checks.add(checkShares(name, got, want, res.TotalGbps(w.from, w.to), pol.rootGbps, fig11aTolGbps)) && ok
	}
	if !ok {
		rr.failed++
	}

	t1 := time.Now()
	for _, churn := range rc.churns {
		c0 := time.Now()
		sweep, err := experiments.RunOffloadSweep(experiments.OffloadScenario{DurationNs: sweepDurationNs},
			rc.tableCaps, []float64{churn})
		if err != nil {
			return nil, err
		}
		rr.callNs = append(rr.callNs, float64(time.Since(c0)))
		for _, o := range sweep.Oracles {
			rr.sweepPkts += o.Delivered + o.Dropped
		}
		for _, pt := range sweep.Points {
			rr.ops++
			rr.sweepPkts += pt.Blind.Delivered + pt.Blind.Dropped + pt.Fed.Delivered + pt.Fed.Dropped
			cell := fmt.Sprintf("sweep churn=%.0f table=%d", pt.ChurnFlowsPerSec, pt.TableCap)
			fmt.Fprintf(log, "%s: shed fed %.4f blind %.4f\n", cell, pt.Fed.ShedRate, pt.Blind.ShedRate)
			if !checks.add(checkShed(cell, pt.Fed.ShedRate, pt.Blind.ShedRate)) {
				rr.failed++
			}
		}
	}
	rr.sweepNs = int64(time.Since(t1))
	return rr, nil
}

func runReproduce(cfg runConfig) (*result, error) {
	return reproduce(cfg, fullSweep)
}

func reproduce(cfg runConfig, rc reproduceConfig) (*result, error) {
	pol, err := parseScript(fvconf.MotivationScript)
	if err != nil {
		return nil, err
	}
	sc := fig11aScenario()
	setupS := setupDone()
	// The checks here are per operation (one scenario each): a failed
	// one fails its own scenario, not the whole run.
	var opChecks checkList
	mem := startMem()
	// Whole rounds only: at least one, and more while they fit in the
	// requested time. Every round logs the same lines (the scenarios are
	// deterministic), so only the first one is printed.
	var rounds []*roundResult
	start := time.Now()
	log := cfg.log
	for len(rounds) == 0 || !cfg.trace && time.Since(start).Seconds()*float64(len(rounds)+1)/float64(len(rounds)) <= cfg.seconds {
		rr, err := runRound(sc, rc, pol, &opChecks, log)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rr)
		log = io.Discard
	}
	gcCycles, allocMB := mem.stop()
	var prof *cpuShares
	var profiled *roundResult
	if cfg.trace {
		prof, profiled, err = profileRound(cfg.outDir, sc, rc, pol, &opChecks)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, profiled)
	}

	var attempted, failed int64
	var calls []float64
	var runNs []float64
	var pkts uint64
	var sweepNs int64
	for _, rr := range rounds {
		attempted += rr.ops
		failed += rr.failed
		calls = append(calls, rr.callNs...)
		runNs = append(runNs, float64(rr.fig11aNs+rr.sweepNs))
		pkts += rr.sweepPkts
		sweepNs += rr.sweepNs
	}
	sort.Float64s(calls)
	sort.Float64s(runNs)
	fmt.Fprintf(cfg.log, "reproduce: %d rounds, %d scenario calls timed\n", len(rounds), len(calls))
	for _, err := range opChecks.errs {
		fmt.Fprintln(cfg.log, "CHECK FAILED:", err)
	}
	if !cfg.trace {
		m := map[string]metric{
			"setup_s":      {setupS, "s"},
			"pkts_per_s":   {float64(pkts) / (float64(sweepNs) / 1e9) / 1e6, "Mpkt/s"},
			"burst_p50_us": {quantile(calls, 0.5) / 1e3, "us"},
			"burst_p99_us": {calls[len(calls)-1] / 1e3, "us"},
			"run_s":        {quantile(runNs, 0.5) / 1e9, "s"},
		}
		return report(cfg.log, &checkList{}, attempted, failed, m), nil
	}
	plain := rounds[0]
	vals := map[string]float64{
		"reproduce.fig11a_s":        float64(plain.fig11aNs) / 1e9,
		"reproduce.offload_sweep_s": float64(plain.sweepNs) / 1e9,
		"bench.trace_overhead":      float64(plain.fig11aNs+plain.sweepNs) / float64(profiled.fig11aNs+profiled.sweepNs),
		"gc.cycles":                 gcCycles,
		"alloc_mb":                  allocMB,
	}
	for name, share := range prof.shares {
		vals["cpu."+name] = share
	}
	fmt.Fprintf(cfg.log, "cpu profile: %d samples, written to %s\n", prof.samples, prof.path)
	m, err := perLayer(vals)
	if err != nil {
		return nil, err
	}
	return report(cfg.log, &checkList{}, attempted, failed, m), nil
}

// profileRound runs one more round under the CPU profiler and attributes
// its samples to packages.
func profileRound(dir string, sc flowvalve.Scenario, rc reproduceConfig, pol *scriptPolicy, checks *checkList) (*cpuShares, *roundResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "reproduce-cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	rr, err := runRound(sc, rc, pol, checks, io.Discard)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	cs, err := attributeProfile(data)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	cs.path = path
	return cs, rr, nil
}
