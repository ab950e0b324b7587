// Package classifier implements FlowValve's labeling function: matching
// egress packets against user filter rules to attach QoS labels (the
// hierarchy class label and the borrowing class label, §IV-B).
//
// The backend mirrors the paper's P4 pipeline: filter rules compile into
// a ternary match-action table (internal/p4lite) keyed on packet
// metadata (virtual function, flow) and parsed header fields (the
// five-tuple). In front of the tables sits the Exact Match Flow Cache,
// whose dedicated lookup engines the paper credits with a 10× speedup —
// a sharded, capacity-bounded exact-match table keyed by (VF, flow) that
// short-circuits the parser and the table walk on hits (see cache.go).
// Lookups report hit/miss/eviction so the NIC model charges the right
// cycle costs.
package classifier

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"flowvalve/internal/headers"
	"flowvalve/internal/p4lite"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
)

// AnyApp and AnyFlow are wildcards in rules.
const (
	AnyApp  = -1
	AnyFlow = -1
)

// Rule matches packets to a leaf class, tc-filter style: metadata
// selectors (App = virtual function, Flow = transport flow) plus ternary
// five-tuple selectors. Zero masks mean "any" for the tuple fields;
// Proto 0 means any protocol. Rules are evaluated in order; the first
// match wins.
type Rule struct {
	// App matches the sending application / virtual function, or AnyApp.
	App int
	// Flow matches one transport flow, or AnyFlow.
	Flow int

	// SrcIP/DstIP with their masks select source/destination subnets
	// (mask 0 = any; 0xffffffff = exact host).
	SrcIP     uint32
	SrcIPMask uint32
	DstIP     uint32
	DstIPMask uint32
	// SrcPort/DstPort with their masks select L4 ports (u32-style
	// "match ip dport 5201 0xffff").
	SrcPort     uint32
	SrcPortMask uint32
	DstPort     uint32
	DstPortMask uint32
	// Proto selects the transport protocol (6 = tcp, 17 = udp, 0 = any).
	Proto int

	// Class is the target leaf class name.
	Class string
}

// entry compiles the rule into a match-action table row.
func (r Rule) entry() p4lite.Entry {
	var ms []p4lite.Match
	if r.App != AnyApp {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldVF, Value: uint64(uint32(r.App)), Mask: ^uint64(0)})
	}
	if r.Flow != AnyFlow {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldFlowID, Value: uint64(uint32(r.Flow)), Mask: ^uint64(0)})
	}
	if r.SrcIPMask != 0 {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldSrcIP, Value: uint64(r.SrcIP), Mask: uint64(r.SrcIPMask)})
	}
	if r.DstIPMask != 0 {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldDstIP, Value: uint64(r.DstIP), Mask: uint64(r.DstIPMask)})
	}
	if r.SrcPortMask != 0 {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldSrcPort, Value: uint64(r.SrcPort), Mask: uint64(r.SrcPortMask)})
	}
	if r.DstPortMask != 0 {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldDstPort, Value: uint64(r.DstPort), Mask: uint64(r.DstPortMask)})
	}
	if r.Proto != 0 {
		ms = append(ms, p4lite.Match{Field: p4lite.FieldProto, Value: uint64(uint8(r.Proto)), Mask: 0xff})
	}
	return p4lite.Entry{
		Matches: ms,
		Action:  p4lite.Action{Kind: p4lite.ActSetClass, Class: r.Class},
	}
}

// Classifier matches packets against the compiled filter pipeline,
// caching resolved labels in the sharded exact-match flow cache.
//
// Classifier is safe for concurrent use: hits are lock-free, misses
// serialize per cache shard, and ClassifyBatch draws its ordering
// scratch from a pool.
type Classifier struct {
	tree  *tree.Tree
	pipe  *p4lite.Pipeline
	def   *tree.Label // default class label, may be nil
	cache *flowCache

	// parseErrs counts frames the parser rejected on the miss path.
	parseErrs atomic.Uint64

	// batchPool recycles ClassifyBatch index scratch so concurrent
	// batches stay allocation-free without sharing state.
	batchPool sync.Pool
}

// batchScratch orders one ClassifyBatch's lookups by flow key.
//
//fv:owner
type batchScratch struct {
	idx []int32
}

// New builds a classifier for t with the default flow-cache geometry.
// defaultClass names the leaf that absorbs unmatched traffic (the tc
// "default" class); empty means unmatched packets are reported as
// unclassified.
func New(t *tree.Tree, rules []Rule, defaultClass string) (*Classifier, error) {
	return NewSized(t, rules, defaultClass, CacheConfig{})
}

// NewSized is New with an explicit flow-cache capacity and shard count.
func NewSized(t *tree.Tree, rules []Rule, defaultClass string, cache CacheConfig) (*Classifier, error) {
	tbl := p4lite.NewTable("filters")
	for _, r := range rules {
		lbl, ok := t.LabelByName(r.Class)
		if !ok || lbl == nil {
			return nil, fmt.Errorf("classifier: rule targets unknown or non-leaf class %q", r.Class)
		}
		if err := tbl.Add(r.entry()); err != nil {
			return nil, err
		}
	}
	c := &Classifier{
		tree:  t,
		pipe:  p4lite.NewPipeline(tbl),
		cache: newFlowCache(cache),
	}
	c.batchPool.New = func() any { return new(batchScratch) }
	if defaultClass != "" {
		lbl, ok := t.LabelByName(defaultClass)
		if !ok || lbl == nil {
			return nil, fmt.Errorf("classifier: default class %q unknown or not a leaf", defaultClass)
		}
		c.def = lbl
	}
	return c, nil
}

// Lookup returns the QoS label for p and whether it was served from the
// flow cache. On a miss the full pipeline runs: header bytes are
// synthesized from the packet's tuple, parsed back, and walked through
// the match-action tables. A nil label means the packet matched nothing
// and there is no default class (negative results are cached too: the
// NP caches the drop/default action the same way as a positive match).
func (c *Classifier) Lookup(p *packet.Packet) (lbl *tree.Label, hit bool) {
	lbl, hit, _ = c.lookup(p)
	return lbl, hit
}

// lookup is the per-packet primitive of ClassifyBurst: Lookup plus
// whether resolving the miss evicted a live cache entry — the outcome
// the NIC model charges CLOCK-writeback cycles for.
//
//fv:hotpath
func (c *Classifier) lookup(p *packet.Packet) (lbl *tree.Label, hit, evicted bool) {
	key := packKey(p.App, p.Flow)
	sh, lbl, ok := c.cache.get(key)
	if ok {
		return lbl, true, false
	}
	// Miss path: parser + table walk + insert, serialized per shard.
	sh.mu.Lock()
	if e, ok := c.cache.probeLocked(sh, key); ok {
		// A concurrent miss for the same flow resolved it first.
		sh.mu.Unlock()
		return e.lbl, false, false
	}
	//fv:coldpath flow-cache miss: parser + table walk run once per flow, amortized by the cache on the packet path
	lbl = c.classify(p, &sh.scratch)
	evicted = c.cache.insertLocked(sh, key, lbl)
	sh.mu.Unlock()
	return lbl, false, evicted
}

// ClassifyBatch resolves the labels of a burst of packets, writing
// labels[i] and hits[i] for ps[i] (both must be at least len(ps) long).
// See ClassifyBurst for eviction reporting and shard steering.
func (c *Classifier) ClassifyBatch(ps []*packet.Packet, labels []*tree.Label, hits []bool) {
	c.ClassifyBurst(ps, labels, hits, nil, nil, nil)
}

// batchSortThreshold is the burst length above which the grouping sort
// switches from insertion sort to sort.SliceStable: Rx bursts are small
// and run-heavy, where insertion sort wins, but an adversarial
// all-distinct-flow burst makes it O(n²).
const batchSortThreshold = 32

// ClassifyBurst resolves the labels of a burst of packets, writing
// labels[i], hits[i], and (when non-nil) evicted[i] for ps[i]. It is
// the classifier's one batch kernel.
//
// The batch amortizes the exact-match flow cache: lookups are grouped by
// flow key (a stable sort over an index scratch), so every packet of a
// group behind its head resolves by pointer comparison instead of a
// table probe. The stable order means the group head is the burst's
// first-arriving packet, so hit/miss accounting — and therefore the NIC
// model's cycle charges — is identical to calling Lookup per packet in
// arrival order.
//
// Shard steering is optional and fused into the same pass: when shards
// is non-nil, shards[i] receives the scheduler shard that owns ps[i]'s
// label per the owners table (ClassID → shard, see
// dataplane.OwnerTabler), or -1 for unclassified packets. The steer is
// computed once per flow group — every follower inherits the head's
// shard along with its label — so a burst dominated by few flows pays
// one table load per flow, not a dynamic dispatch per packet. Drivers
// of sharded scheduling functions (the NIC's burst service) use this to
// fill their per-shard feed lanes.
//
//fv:hotpath
func (c *Classifier) ClassifyBurst(ps []*packet.Packet, labels []*tree.Label, hits, evicted []bool, owners, shards []int32) {
	n := len(ps)
	labels, hits = labels[:n], hits[:n]
	if evicted != nil {
		evicted = evicted[:n]
	}
	if shards != nil {
		shards = shards[:n]
	}
	bs := c.batchPool.Get().(*batchScratch)
	if cap(bs.idx) < n {
		bs.idx = make([]int32, 0, n) //fv:coldpath pooled scratch grows to the largest burst once, then never again
	}
	idx := bs.idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
	}
	if n <= batchSortThreshold {
		// Stable insertion sort by (app, flow); equal keys keep input
		// order.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keyLess(ps[idx[j]], ps[idx[j-1]]); j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
	} else {
		//fv:coldpath bursts beyond batchSortThreshold exceed any NIC ring budget; stdlib sort is fine there
		sort.SliceStable(idx, func(a, b int) bool { return keyLess(ps[idx[a]], ps[idx[b]]) })
	}
	var (
		lastKey   uint64
		lastLbl   *tree.Label
		lastShard int32
		have      bool
	)
	for _, i := range idx {
		k := packKey(ps[i].App, ps[i].Flow)
		ev := false
		if have && k == lastKey {
			// Same flow as the group head: the cache would hit; skip
			// the probe and reuse the resolved label and shard.
			c.cache.hits.add()
			labels[i], hits[i] = lastLbl, true
		} else {
			labels[i], hits[i], ev = c.lookup(ps[i])
			lastKey, lastLbl, have = k, labels[i], true
			lastShard = -1
			if shards != nil && lastLbl != nil {
				lastShard = owners[lastLbl.Leaf.ID]
			}
		}
		// Every requested output is written for every packet, group
		// followers included: callers reuse these buffers across
		// bursts, and a stale evicted[i] or shards[i] from an earlier
		// burst would charge a phantom eviction or misroute a packet.
		if evicted != nil {
			evicted[i] = ev
		}
		if shards != nil {
			shards[i] = lastShard
		}
	}
	bs.idx = idx
	//fv:owner-ok ownership returns to the pool: this frame holds the only reference and never touches bs after the Put
	c.batchPool.Put(bs)
}

// keyLess orders packets by flow key for batch grouping.
func keyLess(a, b *packet.Packet) bool {
	if a.App != b.App {
		return a.App < b.App
	}
	return a.Flow < b.Flow
}

// classify runs the parser + match-action pipeline for one packet.
// scratch is the caller's shard-owned header buffer.
func (c *Classifier) classify(p *packet.Packet, scratch *[headers.MaxStackLen]byte) *tree.Label {
	key := p4lite.Key{VF: uint32(p.App), FlowID: uint32(p.Flow)}
	if p.Tuple != (headers.FiveTuple{}) {
		// Honest parse: build the wire header stack and parse it
		// back, exactly as the P4 parser would.
		n, err := headers.Build(scratch[:], p.Tuple, p.Size-headers.EthLen)
		if err != nil {
			c.parseErrs.Add(1)
			return c.def
		}
		parsed, err := p4lite.ParseFrame(scratch[:n], uint32(p.App), uint32(p.Flow))
		if err != nil {
			c.parseErrs.Add(1)
			return c.def
		}
		key = parsed
	}
	res := c.pipe.Classify(key)
	if res.Drop || res.Class == "" {
		return c.def
	}
	lbl, ok := c.tree.LabelByName(res.Class)
	if !ok {
		return c.def
	}
	return lbl
}

// Pipeline exposes the compiled match-action pipeline (for table dumps).
func (c *Classifier) Pipeline() *p4lite.Pipeline { return c.pipe }

// Tree exposes the scheduling tree the classifier's labels point into —
// consumers (the NIC's host slow path) build secondary schedulers over
// the same class hierarchy so both paths enforce one policy.
func (c *Classifier) Tree() *tree.Tree { return c.tree }

// Invalidate drops the cached entry for one flow (rule updates, flow
// teardown). Unknown keys are ignored.
func (c *Classifier) Invalidate(app packet.AppID, flow packet.FlowID) {
	c.cache.invalidate(packKey(app, flow))
}

// Flush empties the flow cache (bulk rule replacement) and resets every
// cache counter — hits, misses, evictions, invalidations, and parse
// errors together, so the post-flush statistics are consistent.
func (c *Classifier) Flush() {
	c.cache.flush()
	c.parseErrs.Store(0)
}

// Stats aggregates the flow-cache counters across shards.
func (c *Classifier) Stats() CacheStats {
	st := c.cache.stats()
	st.ParseErrors = c.parseErrs.Load()
	return st
}

// CacheLen returns the number of cached flow entries.
func (c *Classifier) CacheLen() int { return c.cache.stats().Size }

// CacheCap returns the effective flow-cache capacity in entries.
func (c *Classifier) CacheCap() int { return c.cache.capacity }
