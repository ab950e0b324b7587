package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"flowvalve/internal/classifier"
	"flowvalve/internal/clock"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
)

// hotFlowCount is the resident flow set of hot-flows: a few thousand
// flows, far below the 65 536-entry flow cache, so after warm-up every
// lookup hits.
const hotFlowCount = 4096

// hotWorker is one core's state in hot-flows. Each worker owns its
// buffers; the classifier and scheduler are shared.
type hotWorker struct {
	flows  []packet.Packet
	leaves []string

	pkts   [burstLen]packet.Packet
	ptrs   [burstLen]*packet.Packet
	labels [burstLen]*tree.Label
	hits   [burstLen]bool
	reqs   [burstLen]dataplane.Request
	out    [burstLen]dataplane.Decision

	rng      uint64
	fwdBytes [4]int64 // forwarded bytes by app
	fwdPkts  int64
	n        int64 // decisions
	failed   int64
	firstErr error
	win      *windowed
}

// burst pushes one 32-packet burst through the NIC's burst service:
// ClassifyBatch, then ScheduleBatch, then the label check and the
// benchmark's own byte count. tr == nil is the untraced path.
func (w *hotWorker) burst(cls *classifier.Classifier, sched *core.ShardedScheduler, tr *tracer) {
	for i := range w.pkts {
		w.rng = xorshift(w.rng)
		w.pkts[i] = w.flows[w.rng%hotFlowCount]
		w.pkts[i].Size = frameSizes[(w.rng>>32)%uint64(len(frameSizes))]
	}
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	cls.ClassifyBatch(w.ptrs[:], w.labels[:], w.hits[:])
	if tr != nil {
		t1 := tr.now()
		tr.record(layerClassifier, 0, t0, t1)
	}
	for i := range w.reqs {
		w.reqs[i] = dataplane.Request{Label: w.labels[i], Size: w.pkts[i].Size}
	}
	if tr != nil {
		t0 = tr.now()
	}
	sched.ScheduleBatch(w.reqs[:], w.out[:])
	if tr != nil {
		tr.record(layerCore, 0, t0, tr.now())
	}
	for i := range w.pkts {
		app := w.pkts[i].App
		var got string
		if w.labels[i] != nil {
			got = w.labels[i].Leaf.Name
		}
		if err := checkLabel(got, w.leaves[app]); err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("flow %d: %w", w.pkts[i].Flow, err)
			}
			continue
		}
		if w.out[i].Verdict == dataplane.Forward {
			w.fwdBytes[app] += int64(w.pkts[i].Size)
			w.fwdPkts++
		}
	}
	w.n += burstLen
}

// loop runs bursts until the wall deadline, timing each one.
func (w *hotWorker) loop(cls *classifier.Classifier, sched *core.ShardedScheduler, base time.Time, deadline int64, tr *tracer) {
	for {
		t0 := int64(time.Since(base))
		w.burst(cls, sched, tr)
		t1 := int64(time.Since(base))
		if tr != nil {
			tr.record(layerBurst, 0, t0, t1)
		} else {
			w.win.burst(t0, t1, burstLen)
		}
		if t1 >= deadline {
			w.win.finish(t1)
			return
		}
	}
}

func runHotFlows(cfg runConfig) (*result, error) {
	pc, err := compile(fvconf.MotivationScript, 4)
	if err != nil {
		return nil, err
	}
	cls, err := classifier.NewSized(pc.tree, pc.rules, pc.defCls, classifier.CacheConfig{})
	if err != nil {
		return nil, err
	}
	wall := clock.NewWall()
	sched, err := core.NewSharded(pc.tree, wall, core.Config{}, core.ShardConfig{Shards: 1})
	if err != nil {
		return nil, err
	}
	flows := make([]packet.Packet, hotFlowCount)
	rng := splitmix(cfg.seed)
	for i := range flows {
		rng = splitmix(rng)
		flows[i] = flowPacket(uint32(rng>>40), 4)
		flows[i].Size = 64
	}
	// Cache warm-up: every resident flow resolved once.
	ptrs := make([]*packet.Packet, len(flows))
	for i := range flows {
		ptrs[i] = &flows[i]
	}
	cls.ClassifyBatch(ptrs, make([]*tree.Label, len(flows)), make([]bool, len(flows)))
	warm := cls.Stats()

	nw := min(runtime.NumCPU(), 2)
	workers := make([]*hotWorker, nw)
	for k := range workers {
		w := &hotWorker{flows: flows, leaves: pc.leaves, rng: splitmix(cfg.seed ^ uint64(k+1)<<32), win: newWindowed(splitmix(uint64(k)))}
		for i := range w.pkts {
			w.ptrs[i] = &w.pkts[i]
		}
		workers[k] = w
	}
	setupS := setupDone()

	mem := startMem()
	base := time.Now()
	half := int64(cfg.seconds * 1e9)
	if cfg.trace {
		half /= 2
	}
	// phase1 and ends record each worker's decisions and end time after
	// the untraced phase, for the traced run's overhead ratio.
	phase1 := make([]int64, nw)
	ends := make([]int64, nw)
	tracers := make([]*tracer, nw)
	var wg sync.WaitGroup
	for k, w := range workers {
		wg.Add(1)
		go func(k int, w *hotWorker) {
			defer wg.Done()
			w.loop(cls, sched, base, half, nil)
			phase1[k] = w.n
			ends[k] = int64(time.Since(base))
			if cfg.trace {
				tracers[k] = newTracer(base)
				w.loop(cls, sched, base, 2*half, tracers[k])
			}
		}(k, w)
	}
	wg.Wait()
	total := time.Since(base)
	gcCycles, allocMB := mem.stop()

	// Run-level checks.
	var checks checkList
	var decisions, fwdPkts, failed, n1 int64
	var end1 int64
	ownLeaf := map[string]int64{}
	for k, w := range workers {
		decisions += w.n
		fwdPkts += w.fwdPkts
		failed += w.failed
		n1 += phase1[k]
		if ends[k] > end1 {
			end1 = ends[k]
		}
		for app, b := range w.fwdBytes {
			ownLeaf[pc.leaves[app]] += b
		}
		if w.firstErr != nil {
			fmt.Fprintln(cfg.log, "label check failed:", w.firstErr)
		}
	}
	snap := sched.Snapshot()
	var rootBytes, borrow, updates int64
	for _, st := range snap {
		updates += st.Updates
		if !st.Class.Leaf() {
			continue
		}
		rootBytes += st.FwdBytes
		borrow += st.BorrowPkts
		checks.add(checkEqual("forwarded bytes of leaf "+st.Class.Name, st.FwdBytes, ownLeaf[st.Class.Name]))
	}
	burstBytes := int64(pc.pol.rootGbps * 1e9 / 8 * float64(sched.Config().BurstNs) / 1e9)
	elapsedNs := wall.Now()
	checks.add(checkRate("root", rootBytes, pc.pol.rootGbps*1e9, elapsedNs, burstBytes))
	fmt.Fprintf(cfg.log, "root excess over rate x elapsed: %d B (allowance %d B)\n", rootBytes-int64(pc.pol.rootGbps/8*float64(elapsedNs)), burstBytes)
	fmt.Fprintf(cfg.log, "hot-flows: %d workers, %d flows, %d decisions, forwarded %.2f Gbit/s of %.0f\n",
		nw, hotFlowCount, decisions, float64(rootBytes)*8/total.Seconds()/1e9, pc.pol.rootGbps)

	if !cfg.trace {
		run := packetRun{setupS: setupS}
		for _, w := range workers {
			run.rate += w.win.rate()
			run.win = append(run.win, w.win)
		}
		return report(cfg.log, &checks, decisions, failed, run.endToEnd(cfg.log)), nil
	}
	cs := cls.Stats()
	lookups := float64(cs.Hits + cs.Misses - warm.Hits - warm.Misses)
	tr := mergeTracers(tracers)
	n2 := float64(decisions - n1)
	pps1 := float64(n1) / (float64(end1) / 1e9)
	pps2 := n2 / (total.Seconds() - float64(end1)/1e9)
	vals := map[string]float64{
		"classifier.ns_per_pkt":         float64(tr.selfNs(layerClassifier)) / n2,
		"classifier.miss_ratio":         float64(cs.Misses-warm.Misses) / lookups,
		"classifier.evictions_per_kpkt": float64(cs.Evictions-warm.Evictions) / lookups * 1e3,
		"core.ns_per_pkt":               float64(tr.selfNs(layerCore)) / n2,
		"core.forward_ratio":            float64(fwdPkts) / float64(decisions),
		"core.borrow_ratio":             float64(borrow) / float64(decisions),
		"core.updates_per_kpkt":         float64(updates) / float64(decisions) * 1e3,
		"bench.ns_per_pkt":              float64(tr.selfNs(layerBurst)) / n2,
		"bench.trace_overhead":          pps2 / pps1,
		"gc.cycles":                     gcCycles,
		"alloc_mb":                      allocMB,
	}
	path, err := dumpSpans(cfg.outDir, "spans-hot-flows.csv", tracers, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.log, "spans written to", path)
	m, err := perLayer(vals)
	if err != nil {
		return nil, err
	}
	return report(cfg.log, &checks, decisions, failed, m), nil
}
