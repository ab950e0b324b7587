package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"flowvalve/internal/classifier"
	"flowvalve/internal/clock"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
)

// flow-churn inputs: a flow population far larger than the default
// 65 536-entry flow cache with Zipf popularity, offered at 50 Gbit/s into
// a 40 Gbit/s four-way fair queue on virtual time.
const (
	churnFlows          = 1 << 20
	churnZipfS          = 1.1
	churnOfferBitsPerNs = 50
	// churnWarmPkts fills the flow cache before measuring.
	churnWarmPkts = 1 << 18
	// sampleHeavy and sampleStride pick the flows whose exact byte count
	// the benchmark keeps for the count-min check: the 64 most popular
	// and every 16 384th by popularity rank.
	sampleHeavy  = 64
	sampleStride = 1 << 14
)

// churnState is the single flow-churn worker: the program's layers plus
// the benchmark's own bookkeeping.
type churnState struct {
	pc    *compiled
	cls   *classifier.Classifier
	sched *core.ShardedScheduler
	ctrl  *offload.Controller
	clk   *clock.Manual
	zipf  *rand.Zipf
	rng   uint64

	pkt      packet.Packet
	offered  int64 // bytes offered so far; virtual time is offered·8/50 ns
	nextTick int64
	tickNs   int64

	n, fwdPkts, failed int64
	fwdBytes           [4]int64
	exact              [sampleHeavy + churnFlows/sampleStride]uint64
	firstErr           error
	checks             checkList
}

func sampleSlot(flow uint32) int {
	if flow < sampleHeavy {
		return int(flow)
	}
	if flow%sampleStride == sampleStride/2 {
		return sampleHeavy + int(flow/sampleStride)
	}
	return -1
}

func sampleFlow(slot int) uint32 {
	if slot < sampleHeavy {
		return uint32(slot)
	}
	return uint32(slot-sampleHeavy)*sampleStride + sampleStride/2
}

// packet runs one packet through the per-packet call sequence of the
// public Scheduler.Schedule (classifier.Lookup → ShardedScheduler.
// Schedule), hands it to the offload controller's Observe, and runs the
// controller's Tick at each period boundary the packet's arrival
// crosses.
func (c *churnState) packet(tr *tracer) {
	flow := uint32(c.zipf.Uint64())
	c.rng = xorshift(c.rng)
	size := frameSizes[c.rng%uint64(len(frameSizes))]
	now := c.offered * 8 / churnOfferBitsPerNs
	c.clk.Set(now)
	for c.nextTick <= now {
		c.tick(tr)
	}
	p := &c.pkt
	*p = flowPacket(flow, 4)
	p.Size = size

	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	lbl, _ := c.cls.Lookup(p)
	if tr != nil {
		t1 := tr.now()
		tr.record(layerClassifier, 0, t0, t1)
		t0 = t1
	}
	var got string
	if lbl != nil {
		got = lbl.Leaf.Name
	}
	app := p.App
	if err := checkLabel(got, c.pc.leaves[app]); err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("flow %d: %w", flow, err)
		}
		c.offered += int64(size)
		c.n++
		return
	}
	if tr != nil {
		t0 = tr.now()
	}
	d := c.sched.Schedule(lbl, size)
	if tr != nil {
		t1 := tr.now()
		tr.record(layerCore, 0, t0, t1)
		t0 = t1
	}
	c.ctrl.Observe(p.App, p.Flow, size)
	if tr != nil {
		tr.record(layerObserve, 0, t0, tr.now())
	}
	if s := sampleSlot(flow); s >= 0 {
		c.exact[s] += uint64(size)
	}
	if d.Verdict == dataplane.Forward {
		c.fwdBytes[app] += int64(size)
		c.fwdPkts++
	}
	c.offered += int64(size)
	c.n++
}

// tick runs one control-loop pass and, at each sketch window roll,
// decays the exact sample counts the same way and checks the sketch
// against them.
func (c *churnState) tick(tr *tracer) {
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	rep := c.ctrl.Tick(c.nextTick)
	if tr != nil {
		tr.record(layerTick, 0, t0, tr.now())
	}
	c.nextTick += c.tickNs
	if !rep.Halved {
		return
	}
	for s := range c.exact {
		c.exact[s] >>= 1
	}
	c.checkSketch()
}

func (c *churnState) checkSketch() {
	for s, want := range c.exact {
		f := sampleFlow(s)
		c.checks.add(checkEstimate(f, c.ctrl.Estimate(packet.AppID(f%4), packet.FlowID(f)), want))
	}
}

// loop runs 32-packet bursts until the wall deadline.
func (c *churnState) loop(base time.Time, deadline int64, win *windowed, tr *tracer) {
	for {
		t0 := int64(time.Since(base))
		for i := 0; i < burstLen; i++ {
			c.packet(tr)
		}
		t1 := int64(time.Since(base))
		if tr != nil {
			tr.record(layerBurst, 0, t0, t1)
		} else {
			win.burst(t0, t1, burstLen)
		}
		if t1 >= deadline {
			win.finish(t1)
			return
		}
	}
}

func runFlowChurn(cfg runConfig) (*result, error) {
	pc, err := compile(fvconf.FairQueueScript("40gbit", 4), 4)
	if err != nil {
		return nil, err
	}
	cls, err := classifier.NewSized(pc.tree, pc.rules, pc.defCls, classifier.CacheConfig{})
	if err != nil {
		return nil, err
	}
	clk := clock.NewManual(0)
	sched, err := core.NewSharded(pc.tree, clk, core.Config{}, core.ShardConfig{Shards: 1})
	if err != nil {
		return nil, err
	}
	ctrl, err := offload.New(offload.Config{})
	if err != nil {
		return nil, err
	}
	c := &churnState{
		pc: pc, cls: cls, sched: sched, ctrl: ctrl, clk: clk,
		zipf:   rand.NewZipf(rand.New(rand.NewSource(int64(splitmix(cfg.seed)>>1))), churnZipfS, 1, churnFlows-1),
		rng:    splitmix(cfg.seed^0x5eed) | 1,
		tickNs: ctrl.TickNs(),
	}
	c.nextTick = c.tickNs
	for i := 0; i < churnWarmPkts; i++ {
		c.packet(nil)
	}
	setupS := setupDone()

	mem := startMem()
	win := newWindowed(splitmix(cfg.seed))
	base := time.Now()
	half := int64(cfg.seconds * 1e9)
	if cfg.trace {
		half /= 2
	}
	n0 := c.n
	c.loop(base, half, win, nil)
	n1, end1 := c.n, time.Since(base)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(base)
		c.loop(base, 2*half, win, tr)
	}
	total := time.Since(base)
	gcCycles, allocMB := mem.stop()

	// Run-level checks. The program's counters are cumulative since
	// construction, so they are compared with every packet the benchmark
	// sent, warm-up included; the warm-up packets count as attempted
	// operations too.
	c.checkSketch()
	cs := cls.Stats()
	checks := &c.checks
	checks.add(checkEqual("flow-cache hits+misses", int64(cs.Hits+cs.Misses), c.n))
	checks.add(checkAtMost("flow-cache size", int64(cs.Size), int64(cs.Capacity)))
	ost := ctrl.Stats()
	checks.add(checkEqual("offload fast+slow packets", int64(ost.FastPkts+ost.SlowPkts), c.n-c.failed))
	checks.add(checkAtMost("offloaded flows", int64(ost.Offloaded), int64(ost.TableCap)))
	virtNs := clk.Now()
	burstBytes := int64(pc.pol.rootGbps * 1e9 / 8 * float64(sched.Config().BurstNs) / 1e9)
	ownLeaf := map[string]int64{}
	for app, b := range c.fwdBytes {
		ownLeaf[pc.leaves[app]] += b
	}
	var rootBytes, borrow, updates int64
	for _, st := range sched.Snapshot() {
		updates += st.Updates
		if !st.Class.Leaf() {
			continue
		}
		rootBytes += st.FwdBytes
		borrow += st.BorrowPkts
		checks.add(checkEqual("forwarded bytes of leaf "+st.Class.Name, st.FwdBytes, ownLeaf[st.Class.Name]))
		checks.add(checkRate("class "+st.Class.Name, st.FwdBytes, pc.pol.rootGbps*1e9, virtNs, burstBytes))
	}
	checks.add(checkRate("root", rootBytes, pc.pol.rootGbps*1e9, virtNs, burstBytes))
	fmt.Fprintf(cfg.log, "root excess over rate x elapsed: %d B (allowance %d B)\n", rootBytes-int64(pc.pol.rootGbps/8*float64(virtNs)), burstBytes)
	if c.firstErr != nil {
		fmt.Fprintln(cfg.log, "label check failed:", c.firstErr)
	}
	measured := c.n - n0
	fmt.Fprintf(cfg.log, "flow-churn: %d flows (Zipf s=%.1f), %d packets measured, miss ratio %.4f, %d offloaded, %.3f virtual s, forwarded %.2f of %.0f Gbit/s\n",
		churnFlows, churnZipfS, measured, float64(cs.Misses)/float64(cs.Hits+cs.Misses), ost.Offloaded,
		float64(virtNs)/1e9, float64(rootBytes)*8/float64(virtNs), pc.pol.rootGbps)

	if !cfg.trace {
		run := packetRun{setupS: setupS, rate: win.rate(), win: []*windowed{win}}
		return report(cfg.log, checks, c.n, c.failed, run.endToEnd(cfg.log)), nil
	}
	n2 := float64(c.n - n1)
	pps1 := float64(n1-n0) / end1.Seconds()
	pps2 := n2 / (total - end1).Seconds()
	all := float64(c.n)
	ticks := tr.ticks
	sort.Float64s(ticks)
	vals := map[string]float64{
		"classifier.ns_per_pkt":         float64(tr.selfNs(layerClassifier)) / n2,
		"classifier.miss_ratio":         float64(cs.Misses) / all,
		"classifier.evictions_per_kpkt": float64(cs.Evictions) / all * 1e3,
		"core.ns_per_pkt":               float64(tr.selfNs(layerCore)) / n2,
		"core.forward_ratio":            float64(c.fwdPkts) / all,
		"core.borrow_ratio":             float64(borrow) / all,
		"core.updates_per_kpkt":         float64(updates) / all * 1e3,
		"offload.observe_ns_per_pkt":    float64(tr.selfNs(layerObserve)) / n2,
		"offload.tick_p99_us":           quantile(ticks, 0.99) / 1e3,
		"offload.fast_share":            float64(ost.FastPkts) / all,
		"offload.installs":              float64(ost.Installs) / all * 1e6,
		"offload.demotions":             float64(ost.Demotions) / all * 1e6,
		"offload.queue_drops":           float64(ost.QueueDrops) / all * 1e6,
		"bench.ns_per_pkt":              float64(tr.selfNs(layerBurst)) / n2,
		"bench.trace_overhead":          pps2 / pps1,
		"gc.cycles":                     gcCycles,
		"alloc_mb":                      allocMB,
	}
	fmt.Fprintf(cfg.log, "offload ticks traced: %d\n", len(ticks))
	path, err := dumpSpans(cfg.outDir, "spans-flow-churn.csv", []*tracer{tr}, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.log, "spans written to", path)
	m, err := perLayer(vals)
	if err != nil {
		return nil, err
	}
	return report(cfg.log, checks, c.n, c.failed, m), nil
}
