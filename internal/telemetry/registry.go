// Package telemetry is FlowValve's observability subsystem: a
// zero-allocation metrics registry, a sampled decision tracer, and
// Prometheus/JSON exporters.
//
// The design constraint is the same one that shapes the scheduler itself
// (and that Eiffel makes explicit for software packet schedulers): the
// hot path budget is a handful of nanoseconds per packet. Three rules
// follow:
//
//   - Hot-path instruments (Counter.Add, Gauge.Set, Histogram.Observe)
//     are lock-free atomics on cache-line-padded, sharded slots and never
//     allocate. Every method is nil-receiver safe, so disabled telemetry
//     compiles down to one predictable branch.
//
//   - State the datapath already maintains (the scheduler's per-class
//     atomic counters, token levels, rate estimates) is exported through
//     *Func collectors read at scrape time — continuous observability at
//     exactly zero added hot-path cost.
//
//   - Everything heavier (registration, exposition, trace draining) runs
//     off the packet path under a registry mutex the datapath never
//     touches.
//
// Registration is get-or-create keyed by (name, labels): asking for the
// same counter twice returns the same instance (so counters survive a
// policy Swap monotonically), while re-registering a Func collector
// replaces its callback (so gauge readers follow the newest scheduler
// generation).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Label is one key=value pair attached to a metric instance.
type Label struct {
	Key   string
	Value string
}

// Kind enumerates the metric types a registry can hold.
type Kind int

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

const cacheLine = 64

// counterShard is one padded counter slot: the padding keeps two shards
// out of the same cache line so cores incrementing different shards never
// false-share.
type counterShard struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// counterShards is the shard fan-out (a power of two, 1<<counterShardBits).
// 16 shards cover the NP model's worker-goroutine counts without
// measurable collision cost.
const (
	counterShardBits = 4
	counterShards    = 1 << counterShardBits
)

// shardIndex derives a cheap shard hint from the address of a stack
// variable: goroutine stacks are disjoint, so concurrent writers spread
// across shards. It is only a hint — any value is correct, collisions
// merely contend. Stacks are allocated at fixed size-class strides, so a
// plain shift of the address leaves shards unreachable (>>10 hits only
// the odd ones); the Fibonacci multiply folds every address bit into the
// top bits that pick the shard.
func shardIndex() int {
	var b byte
	a := uint64(uintptr(unsafe.Pointer(&b)))
	return int(a * 0x9e3779b97f4a7c15 >> (64 - counterShardBits))
}

// Counter is a monotonically increasing sharded atomic counter. The zero
// value is usable; a nil *Counter is a no-op.
type Counter struct {
	shards [counterShards]counterShard
}

// Add increments the counter by n. Lock-free, allocation-free, nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.shards[shardIndex()].n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous float64 value. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set publishes v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (CAS loop; gauges are updated at event
// rate, not packet rate).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// entry is one registered metric instance.
type entry struct {
	name   string
	help   string
	kind   Kind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// fn, when non-nil, backs the value (Func collectors). Guarded by
	// the registry mutex: registration and collection both hold it.
	fn func() float64
}

// value reads the entry's scalar (counters and gauges only).
func (e *entry) value() float64 {
	if e.fn != nil {
		return e.fn()
	}
	switch e.kind {
	case KindCounter:
		return float64(e.counter.Value())
	case KindGauge:
		return e.gauge.Value()
	}
	return 0
}

// Registry holds a process's metric instances. A nil *Registry hands out
// nil metrics, whose methods are all no-ops — callers never need to
// branch on whether telemetry is enabled.
type Registry struct {
	mu    sync.Mutex
	order []*entry
	byKey map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// key builds the identity of a metric instance. Labels are sorted so the
// same set in any order names the same instance.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	k := name + "{"
	for i, l := range labels {
		if i > 0 {
			k += ","
		}
		k += l.Key + "=" + l.Value
	}
	return k + "}"
}

// sortLabels returns a sorted copy.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// get returns the entry for (name, labels), creating it with mk on first
// use. Kind mismatches are programming errors and panic.
func (r *Registry) get(name, help string, kind Kind, labels []Label, mk func(*entry)) *entry {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", k, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind, labels: labels}
	mk(e)
	r.byKey[k] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns the counter named name with the given labels, creating
// it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, KindCounter, labels, func(e *entry) {
		e.counter = &Counter{}
	}).counter
}

// Gauge returns the gauge named name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, KindGauge, labels, func(e *entry) {
		e.gauge = &Gauge{}
	}).gauge
}

// Histogram returns the histogram named name with the given bucket upper
// bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, KindHistogram, labels, func(e *entry) {
		e.hist = newHistogram(buckets)
	}).hist
}

// CounterFunc registers (or replaces) a callback-backed counter: fn is
// read at scrape time, so exporting state the datapath already counts
// costs the hot path nothing. fn must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.get(name, help, KindCounter, labels, func(e *entry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers (or replaces) a callback-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.get(name, help, KindGauge, labels, func(e *entry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// snapshotEntry is one collected sample set.
type snapshotEntry struct {
	name   string
	help   string
	kind   Kind
	labels []Label

	value float64 // counters and gauges

	// histogram samples
	bounds []float64
	counts []int64 // cumulative per bound, then +Inf
	sum    float64
	count  int64
}

// collect materializes every metric under the registry lock, sorted by
// name then label values so exposition is deterministic.
func (r *Registry) collect() []snapshotEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]snapshotEntry, 0, len(r.order))
	for _, e := range r.order {
		se := snapshotEntry{name: e.name, help: e.help, kind: e.kind, labels: e.labels}
		if e.kind == KindHistogram {
			se.bounds, se.counts, se.sum, se.count = e.hist.snapshot()
		} else {
			se.value = e.value()
		}
		out = append(out, se)
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return key(out[i].name, out[i].labels) < key(out[j].name, out[j].labels)
	})
	return out
}
