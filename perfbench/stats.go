package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The end-to-end figures come from fixed wall-time windows. This machine
// is shared: a fixed ALU loop runs anywhere between 0.25x and 1.0x of its
// best speed from one 100 ms window to the next. The metrics therefore
// take the median over a run's windows of each window's figure, which a
// minority of slowed windows does not move; a high or low quantile of the
// windows rests on a few of them and swings from run to run (see
// README.md).
const (
	// windowNs is the length of one measurement window.
	windowNs = 100e6
	// windowSample bounds the burst durations kept per window: a
	// uniform sample (Algorithm R) with 20 samples beyond its 99th
	// percentile, so the benchmark's own memory does not grow with the
	// run.
	windowSample = 2048
)

// reservoir is a uniform fixed-size sample of burst durations in ns.
type reservoir struct {
	vals []float64
	seen int64
	rng  uint64
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{vals: make([]float64, 0, windowSample), rng: seed | 1}
}

func (r *reservoir) add(ns int64) {
	r.seen++
	if len(r.vals) < windowSample {
		r.vals = append(r.vals, float64(ns))
		return
	}
	r.rng = xorshift(r.rng)
	if j := r.rng % uint64(r.seen); j < windowSample {
		r.vals[j] = float64(ns)
	}
}

// windowed splits one worker's measured phase into windows and keeps
// each finished window's throughput and burst-time percentiles.
type windowed struct {
	open   bool
	start  int64
	n      int64 // decisions in the open window
	lat    *reservoir
	rates  []float64 // decisions per second
	p50s   []float64 // ns
	p99s   []float64 // ns
	bursts int64
}

func newWindowed(seed uint64) *windowed { return &windowed{lat: newReservoir(seed)} }

// burst records one burst of n decisions that ran from t0 to t1 (ns on
// the worker's clock), closing the window once it spans windowNs.
func (w *windowed) burst(t0, t1, n int64) {
	if !w.open {
		w.open, w.start = true, t0
	}
	w.n += n
	w.lat.add(t1 - t0)
	if t1-w.start >= windowNs {
		w.close(t1)
	}
}

// close ends the open window at t1.
func (w *windowed) close(t1 int64) {
	if !w.open {
		return
	}
	vals := w.lat.vals
	sort.Float64s(vals)
	w.rates = append(w.rates, float64(w.n)/(float64(t1-w.start)/1e9))
	w.p50s = append(w.p50s, quantile(vals, 0.5))
	w.p99s = append(w.p99s, quantile(vals, 0.99))
	w.bursts += w.lat.seen
	w.lat.vals, w.lat.seen = vals[:0], 0
	w.open, w.n = false, 0
}

// finish ends the phase: a trailing partial window is dropped unless it
// is the only one.
func (w *windowed) finish(t1 int64) {
	if len(w.rates) == 0 {
		w.close(t1)
	}
	w.open, w.n = false, 0
	w.lat.vals, w.lat.seen = w.lat.vals[:0], 0
}

// rate is the worker's median window throughput in decisions per second.
func (w *windowed) rate() float64 { return sortedQuantile(w.rates, 0.5) }

// burstQuantiles returns the median over all workers' windows of each
// window's 50th and 99th burst-time percentiles (ns), with the number of
// windows and of bursts they timed.
func burstQuantiles(ws []*windowed) (p50, p99 float64, windows int, bursts int64) {
	var w50, w99 []float64
	for _, w := range ws {
		w50 = append(w50, w.p50s...)
		w99 = append(w99, w.p99s...)
		bursts += w.bursts
	}
	return sortedQuantile(w50, 0.5), sortedQuantile(w99, 0.5), len(w50), bursts
}

// cycleMeans merges workers that took turns in the same cycles, window i
// of each falling in cycle i: window i of the result carries the mean
// over the workers of their window-i rates and burst percentiles. Each
// cycle gives every worker the same wall time, so its mean rate is the
// cycle's decisions per second.
func cycleMeans(ws []*windowed) *windowed {
	out := &windowed{}
	n := len(ws[0].rates)
	for _, w := range ws {
		n = min(n, len(w.rates))
		out.bursts += w.bursts
	}
	k := float64(len(ws))
	for i := 0; i < n; i++ {
		var r, p50, p99 float64
		for _, w := range ws {
			r += w.rates[i]
			p50 += w.p50s[i]
			p99 += w.p99s[i]
		}
		out.rates = append(out.rates, r/k)
		out.p50s = append(out.p50s, p50/k)
		out.p99s = append(out.p99s, p99/k)
	}
	return out
}

// sortedQuantile is quantile over a sorted copy of vals.
func sortedQuantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, q)
}

// xorshift is Marsaglia's xorshift64 step: the benchmark's per-packet
// generator, cheap enough to stay out of the measured cost.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// splitmix derives independent generator states from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// quantile returns the q-quantile of sorted vals by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Span layers the benchmark records around its calls into the program.
// layerBurst is the parent of every other span of the same burst; the
// rest are the layers' exported entry points.
const (
	layerBurst = iota
	layerClassifier
	layerCore
	layerObserve
	layerTick
	layerPifo
	nLayers
)

var layerNames = [nLayers]string{"burst", "classifier", "core", "offload.observe", "offload.tick", "pifo"}

// spanRec is one recorded span. Every span but a burst span has the
// burst span with the same burst number as its parent.
type spanRec struct {
	burst      uint64
	layer      uint8
	sub        uint8 // pifo backend index; 0 elsewhere
	start, end int64 // ns since the tracer's base
}

// spanRingCap bounds the spans kept for the dump: the newest ones are
// written out when the run ends. Layer self times come from every span
// (the sums below), not only from the kept ones.
const spanRingCap = 1 << 16

// tracer records spans for one worker. A nil *tracer records nothing,
// so the untraced path pays one nil check per call site.
type tracer struct {
	base  time.Time
	ring  []spanRec
	spans int64
	burst uint64
	// sum/count accumulate span durations per layer (and per pifo
	// backend, indexed by sub).
	sum   [nLayers][8]int64
	count [nLayers][8]int64
	// ticks keeps every offload Tick duration for its tail percentile
	// (ticks are rare: one per virtual millisecond).
	ticks []float64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, ring: make([]spanRec, 0, spanRingCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record stores one finished span.
func (t *tracer) record(layer, sub int, start, end int64) {
	t.sum[layer][sub] += end - start
	t.count[layer][sub]++
	if layer == layerTick {
		t.ticks = append(t.ticks, float64(end-start))
	}
	rec := spanRec{burst: t.burst, layer: uint8(layer), sub: uint8(sub), start: start, end: end}
	if len(t.ring) < spanRingCap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.spans%spanRingCap] = rec
	}
	t.spans++
	if layer == layerBurst {
		t.burst++
	}
}

// selfNs returns a layer's summed self time. Only burst spans have
// children, so the burst's self time is its duration minus its
// children's; every other layer's self time is its span duration.
func (t *tracer) selfNs(layer int) int64 {
	var s int64
	for _, v := range t.sum[layer] {
		s += v
	}
	if layer != layerBurst {
		return s
	}
	for l := layerBurst + 1; l < nLayers; l++ {
		s -= t.selfNs(l)
	}
	return s
}

// mergeTracers sums the per-layer accumulators of several workers.
func mergeTracers(ts []*tracer) *tracer {
	out := &tracer{}
	for _, t := range ts {
		for l := range t.sum {
			for k := range t.sum[l] {
				out.sum[l][k] += t.sum[l][k]
				out.count[l][k] += t.count[l][k]
			}
		}
		out.ticks = append(out.ticks, t.ticks...)
	}
	return out
}

// dumpSpans writes the kept spans of every worker as CSV, one span a
// line: worker, burst, layer, parent layer, start and end in ns since
// the worker's tracer base.
func dumpSpans(dir, name string, ts []*tracer, subNames []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker,burst,layer,parent,start_ns,end_ns")
	for wi, t := range ts {
		for _, s := range t.ring {
			layer, parent := layerNames[s.layer], layerNames[layerBurst]
			if s.layer == layerBurst {
				parent = ""
			}
			if s.layer == layerPifo && int(s.sub) < len(subNames) {
				layer = "pifo." + subNames[s.sub]
			}
			fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", wi, s.burst, layer, parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
