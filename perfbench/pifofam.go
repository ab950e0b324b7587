package main

import (
	"fmt"
	"math"
	"time"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/pifo"
)

// pifo-family inputs: four apps offered at 50 Gbit/s into a 40 Gbit/s
// link, ranked by weighted fair queueing, replayed identically into each
// of the six backends on virtual time.
const (
	pifoLinkBps        = 40e9
	pifoOfferBitsPerNs = 50
	// pifoTraceBursts is the length of the generated burst trace each
	// backend replays cyclically.
	pifoTraceBursts = 4096
)

// pifoAppShare is the offered traffic split over the four apps.
var pifoAppShare = [4]float64{0.4, 0.3, 0.2, 0.1}

// pifoBackend is one backend under test and the benchmark's own count of
// its decisions.
type pifoBackend struct {
	name  string
	sched *pifo.Sched
	clk   *clock.Manual

	pos      int   // next burst of the trace
	offered  int64 // bytes offered so far; virtual time is offered·8/50 ns
	fwd, drp int64
	fwdBytes int64
	// win holds one window per untraced time slice of this backend.
	win *windowed
}

func runPifoFamily(cfg runConfig) (*result, error) {
	pc, err := compile(fvconf.FairQueueScript("40gbit", 4), 4)
	if err != nil {
		return nil, err
	}
	// The seeded trace: 4096 bursts of 32 (app, size) pairs.
	reqs := make([]dataplane.Request, pifoTraceBursts*burstLen)
	burstBytes := make([]int64, pifoTraceBursts)
	rng := splitmix(cfg.seed) | 1
	for i := range reqs {
		rng = xorshift(rng)
		u := float64(rng>>11) / (1 << 53)
		app := 0
		for acc := pifoAppShare[0]; app < 3 && u >= acc; acc += pifoAppShare[app] {
			app++
		}
		lbl, ok := pc.tree.LabelByName(pc.leaves[app])
		if !ok {
			return nil, fmt.Errorf("no label for leaf %s", pc.leaves[app])
		}
		size := frameSizes[(rng>>3)%uint64(len(frameSizes))]
		reqs[i] = dataplane.Request{Label: lbl, Size: size}
		burstBytes[i/burstLen] += int64(size)
	}
	var backends []*pifoBackend
	for _, name := range pifo.BackendNames() {
		pol, err := pifo.NewPolicy(pifo.PolicyWFQ, 4, pifoLinkBps)
		if err != nil {
			return nil, err
		}
		if tb, ok := pol.(pifo.TreeBinder); ok {
			tb.BindTree(pc.tree)
		}
		clk := clock.NewManual(0)
		s, err := pifo.NewSched(clk, pifo.Config{Backend: name, LinkRateBps: pifoLinkBps}, pol)
		if err != nil {
			return nil, err
		}
		backends = append(backends, &pifoBackend{name: name, sched: s, clk: clk, win: newWindowed(splitmix(cfg.seed + uint64(len(backends))))})
	}
	// The virtual queue holds the default CapPkts packets of one MTU.
	defaults := pifo.Config{}
	defaults.Defaults()
	capBytes := int64(defaults.CapPkts) * 1500
	setupS := setupDone()

	out := make([]dataplane.Decision, burstLen)
	burst := func(b *pifoBackend, tr *tracer, sub int) {
		lo := b.pos * burstLen
		batch := reqs[lo : lo+burstLen]
		b.clk.Set(b.offered * 8 / pifoOfferBitsPerNs)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		b.sched.ScheduleBatch(batch, out)
		if tr != nil {
			tr.record(layerPifo, sub, t0, tr.now())
		}
		for i, d := range out {
			if d.Verdict == dataplane.Forward {
				b.fwd++
				b.fwdBytes += int64(batch[i].Size)
			} else {
				b.drp++
			}
		}
		b.offered += burstBytes[b.pos]
		b.pos++
		if b.pos == pifoTraceBursts {
			b.pos = 0
		}
	}

	mem := startMem()
	var tr *tracer
	base := time.Now()
	// The run is split into cycles; in each cycle every backend runs for
	// the same wall-time slice, at most one window long, and each slice
	// is one window of that backend.
	cycles := int(math.Ceil(cfg.seconds * 1e9 / (windowNs * float64(len(backends)))))
	if cycles < 2 {
		cycles = 2
	}
	slice := int64(cfg.seconds*1e9) / int64(cycles*len(backends))
	var n1 int64
	var end1 time.Duration
	for cyc := 0; cyc < cycles; cyc++ {
		if cfg.trace && cyc == cycles/2 {
			n1, end1 = decisionsOf(backends), time.Since(base)
			tr = newTracer(base)
		}
		for k, b := range backends {
			deadline := int64(time.Since(base)) + slice
			for {
				t0 := int64(time.Since(base))
				burst(b, tr, k)
				t1 := int64(time.Since(base))
				if tr != nil {
					tr.record(layerBurst, 0, t0, t1)
				} else {
					b.win.burst(t0, t1, burstLen)
				}
				if t1 >= deadline {
					b.win.close(t1)
					break
				}
			}
		}
	}
	total := time.Since(base)
	gcCycles, allocMB := mem.stop()

	// Every backend had the same wall time in each cycle, so a cycle's
	// rate is the mean of the backends' slice rates; the family's figures
	// are the medians over cycles of the per-cycle means.
	var checks checkList
	var wins []*windowed
	for _, b := range backends {
		f, d := b.sched.Stats()
		checks.add(checkEqual(b.name+" forwarded", int64(f), b.fwd))
		checks.add(checkEqual(b.name+" dropped", int64(d), b.drp))
		checks.add(checkRate(b.name, b.fwdBytes, pifoLinkBps, b.clk.Now(), capBytes))
		wins = append(wins, b.win)
		fmt.Fprintf(cfg.log, "pifo-family %-7s %10d decisions, drop ratio %.4f, forwarded %.2f Gbit/s on the %.0f Gbit/s link\n",
			b.name, b.fwd+b.drp, float64(b.drp)/float64(b.fwd+b.drp), float64(b.fwdBytes)*8/float64(b.clk.Now()), pifoLinkBps/1e9)
	}
	attempted := decisionsOf(backends)

	if !cfg.trace {
		for k, b := range backends {
			fmt.Fprintf(cfg.log, "pifo-family %-7s median slice: %.3f Mpkt/s, burst p50 %.3f us, p99 %.3f us\n",
				b.name, b.win.rate()/1e6, sortedQuantile(wins[k].p50s, 0.5)/1e3, sortedQuantile(wins[k].p99s, 0.5)/1e3)
		}
		fam := cycleMeans(wins)
		run := packetRun{setupS: setupS, rate: fam.rate(), win: []*windowed{fam}}
		return report(cfg.log, &checks, attempted, 0, run.endToEnd(cfg.log)), nil
	}
	n2 := float64(attempted - n1)
	pps1 := float64(n1) / end1.Seconds()
	pps2 := n2 / (total - end1).Seconds()
	vals := map[string]float64{
		"bench.ns_per_pkt":     float64(tr.selfNs(layerBurst)) / n2,
		"bench.trace_overhead": pps2 / pps1,
		"gc.cycles":            gcCycles,
		"alloc_mb":             allocMB,
	}
	for k, b := range backends {
		vals["pifo."+b.name+".ns_per_pkt"] = float64(tr.sum[layerPifo][k]) / float64(tr.count[layerPifo][k]*burstLen)
		vals["pifo."+b.name+".drop_ratio"] = float64(b.drp) / float64(b.fwd+b.drp)
	}
	path, err := dumpSpans(cfg.outDir, "spans-pifo-family.csv", []*tracer{tr}, pifo.BackendNames())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.log, "spans written to", path)
	m, err := perLayer(vals)
	if err != nil {
		return nil, err
	}
	return report(cfg.log, &checks, attempted, 0, m), nil
}

func decisionsOf(bs []*pifoBackend) int64 {
	var n int64
	for _, b := range bs {
		n += b.fwd + b.drp
	}
	return n
}
