package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"flowvalve/internal/stats"
)

// Trace verdicts, mirroring the scheduler's decision in one byte.
const (
	TraceForward uint8 = iota + 1
	TraceDrop
)

// Event is one sampled scheduling decision. Strings are class names that
// live for the scheduler's lifetime — recording copies only the string
// header, never the bytes, so Record/Write stay allocation-free.
type Event struct {
	// AtNs is the scheduler clock at decision time (virtual ns under
	// the DES, wall ns in a live datapath).
	AtNs int64
	// Class is the leaf class the packet matched.
	Class string
	// Lender names the shadow bucket that admitted a borrowed packet
	// ("" otherwise).
	Lender string
	// QueueDepth is the leaf bucket's token level (bytes) just after
	// the decision — the emulated per-class queue headroom.
	QueueDepth int64
	// Size is the packet's charged size in bytes.
	Size int32
	// Verdict is TraceForward or TraceDrop.
	Verdict uint8
	// Borrowed / Marked mirror the decision flags.
	Borrowed bool
	Marked   bool
}

// traceShard is one writer lane: a power-of-two ring plus the lane's
// sampling counter. The shard is sized and padded so that lanes do not
// false-share. Writers are expected to map predominantly one-to-one onto
// shards (the stack-address hint); mu makes the occasional overlap — and
// the drainer — safe without slowing the unsampled path, which touches
// only `seen`.
type traceShard struct {
	seen atomic.Uint64
	_    [cacheLine - 8]byte

	mu   sync.Mutex
	ring []Event
	pos  uint64 // total writes ever; ring index is pos & mask
}

// Tracer samples 1-in-N scheduling decisions into per-shard power-of-two
// ring buffers. Forward and drop events occupy disjoint lane groups: the
// two verdicts are independently counted streams (the scheduler's
// per-class forward and drop ordinals), so they must not compete for
// ring slots — a drop storm filling the rings would silently evict the
// forward samples it is most interesting to compare against. A nil
// *Tracer is a no-op.
type Tracer struct {
	mask   uint64 // sample when seq & mask == 0
	rmask  uint64 // ring index mask
	shards []traceShard
}

// tracerLanes is the writer-lane count per verdict group; forward and
// drop each get their own group of lanes (tracerGroups total).
const (
	tracerLanes  = 8
	tracerGroups = 2
	tracerShards = tracerLanes * tracerGroups
)

// laneFor maps a verdict and a writer hint to a shard index: drops land
// in the second lane group, everything else in the first.
func laneFor(verdict uint8, hint uintptr) int {
	group := 0
	if verdict == TraceDrop {
		group = 1
	}
	return group*tracerLanes + int(hint&(tracerLanes-1))
}

// nextPow2 rounds n up to a power of two (min 1).
func nextPow2(n int) uint64 {
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p
}

// NewTracer returns a tracer sampling one event in sampleEvery (rounded
// up to a power of two; ≤1 records everything) with bufferSize ring
// slots per verdict group (rounded up; split across that group's lanes).
// Each verdict stream gets the full configured capacity so a storm of
// one verdict can never shrink the other's retention window.
func NewTracer(sampleEvery, bufferSize int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if bufferSize < tracerLanes {
		bufferSize = 4096
	}
	perShard := nextPow2((bufferSize + tracerLanes - 1) / tracerLanes)
	t := &Tracer{
		mask:   nextPow2(sampleEvery) - 1,
		rmask:  perShard - 1,
		shards: make([]traceShard, tracerShards),
	}
	for i := range t.shards {
		t.shards[i].ring = make([]Event, perShard)
	}
	return t
}

// SampleEvery returns the effective sampling period (a power of two).
func (t *Tracer) SampleEvery() uint64 {
	if t == nil {
		return 0
	}
	return t.mask + 1
}

// ShouldSample reports whether the seq-th event of an externally counted
// stream falls on the sampling lattice. Callers that already maintain a
// per-stream packet counter (the scheduler's per-class forward/drop
// counters) use this to make the unsampled path a single mask test with
// no additional atomic.
func (t *Tracer) ShouldSample(seq uint64) bool {
	return t != nil && seq&t.mask == 0
}

// Record offers one event to the tracer, applying 1-in-N sampling with
// the tracer's own sharded counters. Unsampled events cost one sharded
// atomic increment.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	sh := &t.shards[laneFor(ev.Verdict, uintptr(shardIndex()))]
	if (sh.seen.Add(1)-1)&t.mask != 0 {
		return
	}
	t.writeShard(sh, ev)
}

// Write stores one pre-sampled event (pair with ShouldSample). Its lane
// is keyed by the event's class rather than by the writer's stack: the
// caller's stream counter already chose the sample, so what the rings
// retain is then a function of the decision stream alone. (A stack-keyed
// lane moves whenever the runtime grows or shrinks the writer's stack,
// so a seeded simulation would retain different samples depending on
// when the garbage collector ran.)
func (t *Tracer) Write(ev Event) {
	if t == nil {
		return
	}
	t.writeShard(&t.shards[laneFor(ev.Verdict, classHint(ev.Class))], ev)
}

// classHint hashes a class name (FNV-1a) into a lane hint.
func classHint(class string) uintptr {
	h := uint32(2166136261)
	for i := 0; i < len(class); i++ {
		h ^= uint32(class[i])
		h *= 16777619
	}
	return uintptr(h)
}

func (t *Tracer) writeShard(sh *traceShard, ev Event) {
	sh.mu.Lock()
	sh.ring[sh.pos&t.rmask] = ev
	sh.pos++
	sh.mu.Unlock()
}

// Seen returns how many events were offered via Record.
func (t *Tracer) Seen() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		n += t.shards[i].seen.Load()
	}
	return n
}

// Drain removes and returns all buffered events, oldest first (merged
// across shards by timestamp). Events overwritten by ring wrap-around are
// gone — the tracer favors recency, like the NP's capture rings.
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := sh.pos
		if n > t.rmask+1 {
			n = t.rmask + 1
		}
		start := sh.pos - n
		for j := uint64(0); j < n; j++ {
			out = append(out, sh.ring[(start+j)&t.rmask])
		}
		sh.pos = 0
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtNs < out[j].AtNs })
	return out
}

// DrainToMeter drains the tracer into a throughput meter, one series per
// "trace.<verdict>.<class>" (e.g. "trace.forward.1:40"). Each sampled
// event is weighted by the sampling period so the series approximate the
// true byte rates, making the trace directly comparable with the
// delivered-throughput series the experiment harness records. Returns the
// number of events drained.
func DrainToMeter(t *Tracer, m *stats.ThroughputMeter) int {
	events := t.Drain()
	if m == nil {
		return len(events)
	}
	weight := int(t.SampleEvery())
	if weight < 1 {
		weight = 1
	}
	for _, ev := range events {
		verdict := "forward"
		if ev.Verdict == TraceDrop {
			verdict = "drop"
		}
		m.Add("trace."+verdict+"."+ev.Class, int(ev.Size)*weight, ev.AtNs)
	}
	return len(events)
}
