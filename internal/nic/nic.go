// Package nic models an NP-based SmartNIC (Netronome Agilio class) as a
// discrete-event system: a pool of worker micro-engine contexts pulling
// packets from per-VF receive rings, a run-to-completion processing
// pipeline (parse → exact-match flow cache → FlowValve scheduling
// function), and a traffic manager feeding fixed-rate wire ports through
// byte-bounded FIFO queues.
//
// This is the substitution for the paper's hardware prototype: the model
// charges explicit cycle costs per pipeline stage (calibrated in
// costs.go to the paper's 19.69Mpps@64B envelope), so processing-bound
// versus line-rate-bound regimes, buffer occupancy, and one-way delay all
// emerge from the same mechanics as on the NP.
package nic

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/fvassert"
	"flowvalve/internal/packet"
	"flowvalve/internal/pktq"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
)

// DropReason distinguishes where in the NIC a packet died.
type DropReason int

const (
	// DropSched is the FlowValve specialized tail drop (the intended
	// control action).
	DropSched DropReason = iota + 1
	// DropRxRing means the per-VF receive ring overflowed (host pushed
	// faster than the cores could drain).
	DropRxRing
	// DropTM means a traffic-manager port queue overflowed — the
	// uncontrolled congestion FlowValve exists to prevent.
	DropTM
	// DropUnclassified means no filter rule matched and no default
	// class exists.
	DropUnclassified
	// DropShardRing means the packet's scheduler-shard feed ring was
	// full: the classifier steered it to its owner shard but the burst
	// overflowed that shard's bounded feed lane.
	DropShardRing
	// DropSlowPath means the packet's flow held no fast-path rule and
	// the host slow path was too backlogged to absorb the detour (the
	// offload control plane's overload shedding).
	DropSlowPath
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropSched:
		return "sched"
	case DropRxRing:
		return "rx-ring"
	case DropTM:
		return "tm"
	case DropUnclassified:
		return "unclassified"
	case DropShardRing:
		return "shard-ring"
	case DropSlowPath:
		return "slow-path"
	default:
		return "invalid"
	}
}

// Callbacks connects the NIC to the rest of the simulation. Either field
// may be nil. A packet's OnDeliver or OnDrop is its last use inside the
// NIC, so the callback may hand it back to its packet.Alloc (see
// dataplane.Callbacks).
type Callbacks struct {
	// OnDeliver fires when a packet finishes transmitting on the wire;
	// p.EgressAt is set.
	OnDeliver func(p *packet.Packet)
	// OnDrop fires when the NIC discards a packet.
	OnDrop func(p *packet.Packet, reason DropReason)
}

// Config sizes the NIC model. Zero fields take the Agilio-calibrated
// defaults from Defaults.
type Config struct {
	// Cores is the number of worker micro-engine contexts.
	Cores int
	// CoreFreqHz is the micro-engine clock.
	CoreFreqHz float64
	// WireRateBps is the aggregate wire rate (e.g. 40e9).
	WireRateBps float64
	// WirePorts is the number of egress ports the traffic manager
	// serves; the paper's 40G testbed feeds four 10GbE receiver ports.
	WirePorts int
	// TMQueueBytes bounds each port's traffic-manager queue.
	TMQueueBytes int64
	// RxRingPkts bounds each per-VF receive ring.
	RxRingPkts int
	// ThreadsPerME is the number of hardware thread contexts per
	// micro-engine. Memory stalls of one context are hidden by running
	// another, so an ME's per-packet occupancy is
	// max(compute, (compute+MemStall)/ThreadsPerME) cycles while the
	// packet's latency is always compute+MemStall.
	ThreadsPerME int
	// Clusters groups the worker contexts into island clusters; the
	// load-balancing module distributes packets round-robin across
	// clusters with free contexts (§III-B).
	Clusters int
	// BufferPool is the number of packet buffers the NIC owns; a
	// packet holds one from Rx pull to wire egress (or drop).
	BufferPool int
	// BufferRecycleNs is the manager-core batching interval: freed
	// buffers are collected and re-linked to the free lists on this
	// cadence, not instantly (§III-B's manager core).
	BufferRecycleNs int64
	// BatchSize is the most ring packets a worker context pulls into one
	// service routine. Every routine is a burst — classified, scheduled
	// and charged in one pass, with the per-batch fixed costs (ring
	// doorbell, buffer credit pull, reorder-slot allocation — the
	// CostModel.PipelineBatch share) paid once per burst, mirroring the
	// NP's context pipelining. At the default of 1 every burst is a
	// single packet and a packet that finds a free context is served on
	// arrival. Above 1, arrivals queue in their Rx ring first and a free
	// context drains up to BatchSize of them; bursts form under
	// backpressure, and an unloaded NIC still services singly.
	BatchSize int
	// ShardRingPkts bounds each scheduler-shard feed ring when the
	// attached scheduling function is sharded (dataplane.Sharder with
	// more than one shard): a burst steers each classified packet into
	// its owner shard's lane and an overfull lane drops the packet
	// (DropShardRing). Ignored for single-shard schedulers.
	ShardRingPkts int
	// FixedLatencyNs is the constant pipeline latency outside the
	// modelled stages (PCIe DMA, MAC, SerDes).
	FixedLatencyNs int64
	// Costs is the per-stage cycle cost table.
	Costs CostModel
}

// Defaults fills unset fields with the calibrated Agilio CX 40GbE values.
func (c Config) Defaults() Config {
	if c.Cores <= 0 {
		c.Cores = 50
	}
	if c.CoreFreqHz <= 0 {
		c.CoreFreqHz = 800e6
	}
	if c.WireRateBps <= 0 {
		c.WireRateBps = 40e9
	}
	if c.WirePorts <= 0 {
		c.WirePorts = 4
	}
	if c.TMQueueBytes <= 0 {
		c.TMQueueBytes = 200 * 1024
	}
	if c.RxRingPkts <= 0 {
		c.RxRingPkts = 1024
	}
	if c.ThreadsPerME <= 0 {
		c.ThreadsPerME = 4
	}
	if c.Clusters <= 0 {
		c.Clusters = 5
	}
	if c.BufferPool <= 0 {
		c.BufferPool = 8192
	}
	if c.BufferRecycleNs <= 0 {
		c.BufferRecycleNs = 10_000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.ShardRingPkts <= 0 {
		c.ShardRingPkts = 256
	}
	if c.FixedLatencyNs <= 0 {
		// PCIe DMA, MAC and SerDes stages plus receiver turnaround:
		// the constant part of the paper's one-way-delay floor (the
		// 40G full-load figure of ≈161µs is this plus the pinned
		// traffic-manager occupancy).
		c.FixedLatencyNs = 35_000
	}
	c.Costs = c.Costs.Defaults()
	return c
}

// Stats are cumulative NIC counters.
type Stats struct {
	Injected     uint64
	Delivered    uint64
	SchedDrops   uint64
	RxRingDrops  uint64
	TMDrops      uint64
	Unclassified uint64
	// ShardRingDrops counts packets lost to a full scheduler-shard
	// feed ring (sharded scheduling functions only).
	ShardRingDrops uint64
	// SlowPathDrops counts packets shed by an overloaded host slow path
	// (offload control plane attached, flow not offloaded, host queue
	// past its wait bound).
	SlowPathDrops uint64
	// BufferDrops counts packets rejected because the buffer pool was
	// exhausted (freed buffers not yet recycled by the manager core).
	BufferDrops uint64
	// BusyCycles accumulates worker-core busy time for utilization
	// accounting.
	BusyCycles float64
	// ClusterBusyCycles breaks BusyCycles down per island cluster.
	ClusterBusyCycles []float64
}

// NIC is the SmartNIC discrete-event model.
//
// The scheduler is optional: with a nil scheduler the NIC forwards
// everything (the paper's "disable FlowValve to simply forward packets"
// baseline used to locate the 40G delay floor).
type NIC struct {
	eng *sim.Engine
	cfg Config
	cls *classifier.Classifier
	// sched holds the scheduling function behind an atomic pointer:
	// Swap is called from outside the DES goroutine (live policy
	// hot-swap), so a plain field write would race with the service
	// loop's reads. The ref wrapper exists because atomic.Pointer cannot
	// hold an interface directly; the stored pointer is never nil (a
	// pass-through NIC stores a ref to a nil interface).
	sched atomic.Pointer[schedRef]
	cb    Callbacks

	// Burst scratch (allocated once, BatchSize long): the in-flight
	// service burst and its per-packet classification, scheduling, and
	// outcome state. A service routine runs to completion within one
	// event, so one set suffices.
	batchBuf    []*packet.Packet
	batchLbls   []*tree.Label
	batchHits   []bool
	batchEvict  []bool
	batchReqs   []dataplane.Request
	batchDecs   []dataplane.Decision
	batchFwd    []bool
	batchReason []DropReason
	// batchShard / batchShardDrop carry each burst packet's steered
	// shard (-1 unclassified) and whether it was lost to a full shard
	// feed lane before scheduling (sharded scheduling functions only).
	batchShard     []int32
	batchShardDrop []bool
	// batchSlowLeaf carries each burst packet's class when it must
	// detour through the scheduled host slow path (nil = fast path),
	// filled when an offload control plane is attached.
	batchSlowLeaf []*tree.Class

	clusters    []*cluster
	nextCluster int
	// rings maps an app to its Rx ring on first sight; ringOrder holds
	// the same rings in round-robin order, so the service loop's probe
	// never touches the map.
	rings     map[packet.AppID]*pktq.FIFO
	ringOrder []*pktq.FIFO
	nextRing  int

	// Buffer manager state: freeBuffers are immediately allocatable;
	// recycleBin holds buffers freed since the manager core's last
	// pass.
	freeBuffers  int
	recycleBin   int
	recycleArmed bool

	// Reorder system: run-to-completion cores finish out of order (a
	// flow-cache miss makes the first packet of a flow slower than its
	// followers), so completions are released to the traffic manager in
	// service-begin sequence, as on the NP. Every issued sequence in
	// [seqNext, seqIssue) holds a record in the inflight ring at slot
	// seq&inflightMask; the ring doubles when a burst would overrun it.
	seqIssue     uint64
	seqNext      uint64
	inflight     []inflight
	inflightMask uint64

	ports []*wirePort

	// off is the attached offload control plane (nil = every flow rides
	// the fast path, the pre-offload behaviour).
	off *offloadState

	stats Stats

	// tel holds the attached telemetry instruments (nil when off).
	tel *nicTel

	// Fault-injection state (see ApplyFaults / internal/faults). Both
	// fields are mutated only on the DES goroutine; the fault-free path
	// pays one empty-slice and one zero check.
	stalls    []*stallWindow
	ringClamp int
}

// schedRef boxes the scheduler interface for atomic storage, together
// with the sharding capability probed once at install time: the shard
// count, the steering function, and the per-shard feed-lane model the
// burst service charges against. For a single-shard scheduler the
// extras stay nil/1 and the service path is untouched.
type schedRef struct {
	s      dataplane.Scheduler
	shards int
	// owners is the ClassID → owning-shard steer table (nil when
	// unsharded): the classifier's fused steer pass indexes it directly
	// instead of dispatching through a function value per flow group.
	owners []int32
	lanes  *sim.Lanes

	// plain/sharded cache the concrete FlowValve schedulers behind s
	// (probed once at install) so the burst-service ScheduleBatch call
	// dispatches statically; other dataplane.Scheduler implementations
	// (pifo lab backends, test fakes) keep the virtual path.
	plain   *core.Scheduler
	sharded *core.ShardedScheduler
}

// scheduleBatch runs one batch through the referenced scheduling
// function, devirtualized for the stock core backends.
//
//fv:hotpath
func (ref *schedRef) scheduleBatch(reqs []dataplane.Request, out []dataplane.Decision) {
	switch {
	case ref.plain != nil:
		ref.plain.ScheduleBatch(reqs, out)
	case ref.sharded != nil:
		ref.sharded.ScheduleBatch(reqs, out)
	default:
		//fv:boxing-ok non-core backends (pifo lab, test fakes) are not burst-rate critical; both core schedulers devirtualize above
		ref.s.ScheduleBatch(reqs, out)
	}
}

// newSchedRef probes s for sharding and builds its installable ref.
func (n *NIC) newSchedRef(s dataplane.Scheduler) *schedRef {
	ref := &schedRef{s: s, shards: 1}
	if s != nil {
		switch cs := s.(type) {
		case *core.Scheduler:
			ref.plain = cs
		case *core.ShardedScheduler:
			ref.sharded = cs
		}
		if k, sh := dataplane.ShardsOf(s); sh != nil {
			ref.shards = k
			ref.owners = ownerTable(sh, n.cls.Tree())
			ref.lanes = sim.NewLanes(k, n.cfg.ShardRingPkts)
		}
	}
	return ref
}

// ownerTable extracts the sharder's ClassID → shard table, preferring
// the direct dataplane.OwnerTabler view and falling back to probing
// ShardOf once per leaf for foreign sharders.
func ownerTable(sh dataplane.Sharder, t *tree.Tree) []int32 {
	if tb, ok := sh.(dataplane.OwnerTabler); ok {
		return tb.OwnerTable()
	}
	owners := make([]int32, t.Len())
	for _, c := range t.Classes() {
		if c.Leaf() {
			owners[c.ID] = int32(sh.ShardOf(t.LabelFor(c)))
		}
	}
	return owners
}

// scheduler returns the active scheduling function (nil = pass-through).
func (n *NIC) scheduler() dataplane.Scheduler { return n.sched.Load().s }

// inflight is one packet's service routine in the reorder system, from
// burst issue until its sequence is released to the traffic manager.
// The burst's outcome (fwd, reason, slowLeaf) is fixed at issue; done
// marks the routine completed, with p nil when the slot was released
// without a packet (dropped, or detoured through the slow path).
type inflight struct {
	p        *packet.Packet
	slowLeaf *tree.Class
	reason   DropReason
	fwd      bool
	done     bool
	// burst is set on a burst's first record only: the number of
	// consecutive sequences the burst's completion event finishes.
	burst int
}

// cluster is one micro-engine island: a group of worker contexts fed by
// the load-balancing module.
type cluster struct {
	id   int // index in NIC.clusters (the release event's argument)
	idle int
}

type wirePort struct {
	id     int // index in NIC.ports (the tx event's argument)
	queue  *pktq.FIFO
	freeAt int64 // wire busy until this instant
	active bool  // a drain event is pending
	// cur is the packet on the wire, finishing at curDone; the port's tx
	// event delivers it.
	cur     *packet.Packet
	curDone int64
}

// The NIC's DES events are typed (sim.Handler) conversions of the NIC
// itself, so scheduling one stores a pointer and an index instead of
// allocating a closure per packet.
type (
	// releaseEvent frees a worker context; arg is the cluster index.
	releaseEvent NIC
	// completionEvent finishes one service burst; arg is the burst's
	// first sequence.
	completionEvent NIC
	// txEvent finishes a wire transmission; arg is the port index.
	txEvent NIC
	// recycleEvent is the buffer manager's recycle pass.
	recycleEvent NIC
)

func (e *releaseEvent) Fire(cl uint64) {
	n := (*NIC)(e)
	n.releaseContext(n.clusters[cl])
}

func (e *completionEvent) Fire(first uint64) { (*NIC)(e).completeBurst(first) }

func (e *txEvent) Fire(port uint64) {
	n := (*NIC)(e)
	n.txDone(n.ports[port])
}

func (e *recycleEvent) Fire(uint64) { (*NIC)(e).recyclePass() }

// New assembles a NIC bound to the simulation engine. cls is required;
// sched is any dataplane scheduling function (the FlowValve core in
// every real configuration) and may be nil for pass-through forwarding.
func New(eng *sim.Engine, cfg Config, cls *classifier.Classifier, sched dataplane.Scheduler, cb Callbacks) (*NIC, error) {
	if eng == nil {
		return nil, fmt.Errorf("nic: nil engine")
	}
	if cls == nil {
		return nil, fmt.Errorf("nic: nil classifier")
	}
	// Normalize a typed-nil scheduler (a nil *core.Scheduler passed as
	// the interface) to a plain nil, so the pass-through checks work.
	if v := reflect.ValueOf(sched); sched != nil && v.Kind() == reflect.Pointer && v.IsNil() {
		sched = nil
	}
	cfg = cfg.Defaults()
	n := &NIC{
		eng:         eng,
		cfg:         cfg,
		cls:         cls,
		cb:          cb,
		rings:       make(map[packet.AppID]*pktq.FIFO),
		freeBuffers: cfg.BufferPool,
	}
	n.sched.Store(n.newSchedRef(sched))
	if cfg.Clusters > cfg.Cores {
		cfg.Clusters = cfg.Cores
		n.cfg.Clusters = cfg.Clusters
	}
	n.clusters = make([]*cluster, cfg.Clusters)
	n.stats.ClusterBusyCycles = make([]float64, cfg.Clusters)
	per := cfg.Cores / cfg.Clusters
	extra := cfg.Cores % cfg.Clusters
	for i := range n.clusters {
		n.clusters[i] = &cluster{id: i, idle: per}
		if i < extra {
			n.clusters[i].idle++
		}
	}
	n.ports = make([]*wirePort, cfg.WirePorts)
	for i := range n.ports {
		n.ports[i] = &wirePort{id: i, queue: pktq.New(0, cfg.TMQueueBytes)}
	}
	b := cfg.BatchSize
	// The reorder ring starts with room for one burst, rounded up to a
	// power of two, and doubles under backlog.
	ring := 1
	for ring < b {
		ring *= 2
	}
	n.inflight = make([]inflight, ring)
	n.inflightMask = uint64(ring - 1)
	n.batchBuf = make([]*packet.Packet, 0, b)
	n.batchLbls = make([]*tree.Label, b)
	n.batchHits = make([]bool, b)
	n.batchEvict = make([]bool, b)
	n.batchReqs = make([]dataplane.Request, 0, b)
	n.batchDecs = make([]dataplane.Decision, b)
	n.batchFwd = make([]bool, b)
	n.batchReason = make([]DropReason, b)
	n.batchShard = make([]int32, b)
	n.batchShardDrop = make([]bool, b)
	n.batchSlowLeaf = make([]*tree.Class, b)
	return n, nil
}

// grabCluster returns a cluster with a free context, round-robin from
// the load balancer's cursor, or nil when every context is busy.
func (n *NIC) grabCluster() *cluster {
	for i := 0; i < len(n.clusters); i++ {
		idx := (n.nextCluster + i) % len(n.clusters)
		if c := n.clusters[idx]; c.idle > 0 {
			n.nextCluster = (idx + 1) % len(n.clusters)
			c.idle--
			return c
		}
	}
	return nil
}

// takeBuffer allocates one packet buffer, or reports exhaustion.
func (n *NIC) takeBuffer() bool {
	if n.freeBuffers == 0 {
		return false
	}
	n.freeBuffers--
	if n.tel != nil {
		n.tel.freeBuffers.Add(-1)
	}
	return true
}

// freeBuffer drops a buffer into the recycle bin; the manager core
// re-links the bin to the free list on its next pass.
func (n *NIC) freeBuffer() {
	n.recycleBin++
	if !n.recycleArmed {
		n.recycleArmed = true
		n.eng.Schedule(n.eng.Now()+n.cfg.BufferRecycleNs, (*recycleEvent)(n), 0)
	}
}

func (n *NIC) recyclePass() {
	n.freeBuffers += n.recycleBin
	if n.tel != nil {
		n.tel.freeBuffers.Add(float64(n.recycleBin))
	}
	n.recycleBin = 0
	n.recycleArmed = false
}

// Stats returns a copy of the cumulative counters.
func (n *NIC) Stats() Stats {
	out := n.stats
	out.ClusterBusyCycles = append([]float64(nil), n.stats.ClusterBusyCycles...)
	return out
}

// Config returns the effective configuration.
func (n *NIC) Config() Config { return n.cfg }

// QueuedBytes returns the total bytes currently waiting in the traffic
// manager, for occupancy monitoring.
func (n *NIC) QueuedBytes() int64 {
	var total int64
	for _, p := range n.ports {
		total += p.queue.Bytes()
	}
	return total
}

// Inject hands a packet from the host (a virtual function ring) to the
// NIC at the current simulation time. The load balancer assigns it to a
// cluster with a free context; otherwise it waits in its VF's Rx ring.
func (n *NIC) Inject(p *packet.Packet) {
	if fvassert.Enabled && packet.Poisoned(p) {
		fvassert.Failf("nic: Inject of freed packet %d", p.ID)
	}
	n.stats.Injected++
	if n.tel != nil {
		n.tel.injected.Add(1)
	}
	if !n.takeBuffer() {
		n.stats.BufferDrops++
		if n.tel != nil {
			n.tel.dropBuffer.Add(1)
		}
		n.drop(p, DropRxRing)
		return
	}
	if n.cfg.BatchSize > 1 {
		n.injectBatched(p)
		return
	}
	if c := n.grabCluster(); c != nil {
		n.beginServiceBatch(append(n.batchBuf[:0], p), c)
		return
	}
	ring := n.ringFor(p.App)
	if (n.ringClamp > 0 && ring.Len() >= n.ringClamp) || !ring.TryPush(p) {
		n.stats.RxRingDrops++
		if n.tel != nil {
			n.tel.dropRxRing.Add(1)
		}
		n.freeBuffer()
		n.drop(p, DropRxRing)
		return
	}
	if n.tel != nil {
		n.tel.ringPkts.Add(1)
	}
}

// injectBatched routes an arriving packet through its Rx ring and, when
// a context is free, immediately services a burst of up to BatchSize
// ring packets. Bursts materialize under backpressure (contexts busy,
// rings backlogged); an idle NIC still services singly.
func (n *NIC) injectBatched(p *packet.Packet) {
	ring := n.ringFor(p.App)
	if (n.ringClamp > 0 && ring.Len() >= n.ringClamp) || !ring.TryPush(p) {
		n.stats.RxRingDrops++
		if n.tel != nil {
			n.tel.dropRxRing.Add(1)
		}
		n.freeBuffer()
		n.drop(p, DropRxRing)
		return
	}
	if n.tel != nil {
		n.tel.ringPkts.Add(1)
	}
	if c := n.grabCluster(); c != nil {
		n.serviceBatch(c)
	}
}

// serviceBatch pulls up to BatchSize waiting packets and runs them as
// one service routine, or parks the context when the rings are empty.
//
//fv:hotpath
func (n *NIC) serviceBatch(cl *cluster) {
	batch := n.batchBuf[:0]
	for len(batch) < n.cfg.BatchSize {
		p := n.pullNext()
		if p == nil {
			break
		}
		batch = append(batch, p)
	}
	n.batchBuf = batch[:0]
	if len(batch) == 0 {
		cl.idle++
		return
	}
	n.beginServiceBatch(batch, cl)
}

func (n *NIC) ringFor(app packet.AppID) *pktq.FIFO {
	ring, ok := n.rings[app]
	if !ok {
		ring = pktq.New(n.cfg.RxRingPkts, 0)
		n.rings[app] = ring
		n.ringOrder = append(n.ringOrder, ring)
	}
	return ring
}

// releaseContext returns a micro-engine context to service: it pulls the
// next waiting packet (or burst) or goes idle. A pending stall window
// with outstanding debt captures the context instead (see StallCores).
func (n *NIC) releaseContext(cl *cluster) {
	if len(n.stalls) > 0 && n.parkIfStalled(cl) {
		return
	}
	n.serviceBatch(cl)
}

// beginServiceBatch runs the run-to-completion pipeline for a burst of
// packets on one worker context — the NIC's only service routine; a
// lone packet is a burst of one: classify the burst, schedule it in one
// ScheduleBatch pass, charge the per-batch fixed cycles once and the
// per-packet stages per packet, then hand every completion to the
// reorder system at the batch's service latency.
//
//fv:hotpath
func (n *NIC) beginServiceBatch(batch []*packet.Packet, cl *cluster) {
	k := len(batch)
	lbls := n.batchLbls[:k]
	hits := n.batchHits[:k]
	evs := n.batchEvict[:k]

	// One scheduling pass over the classified packets. A sharded
	// scheduling function interposes the feed-lane model: the
	// classifier fuses the shard steer into its batch pass (one steer
	// per flow group), each classified packet fills its owner shard's
	// bounded lane, and an overfull lane drops it before scheduling;
	// the shard engines drain all lanes within this service event.
	ref := n.sched.Load()
	sched := ref.s
	var shards []int32
	if ref.lanes != nil {
		shards = n.batchShard[:k]
	}
	n.cls.ClassifyBurst(batch, lbls, hits, evs, ref.owners, shards)
	var decs []dataplane.Decision
	doorbells := 0
	if sched != nil {
		reqs := n.batchReqs[:0]
		shardDrop := n.batchShardDrop[:k]
		for i := 0; i < k; i++ {
			if lbls[i] == nil {
				continue
			}
			shardDrop[i] = ref.lanes != nil && !ref.lanes.Offer(int(shards[i]))
			if shardDrop[i] {
				continue
			}
			// Tokens are charged in wire bytes (frame +
			// preamble/IFG): the policy rates are link rates, and
			// charging frame bytes only would over-subscribe the
			// wire by the per-frame overhead (the linklayer overhead
			// accounting of real shapers).
			reqs = append(reqs, dataplane.Request{Label: lbls[i], Size: batch[i].WireBytes()})
		}
		if ref.lanes != nil {
			doorbells = ref.lanes.Touched()
			ref.lanes.DrainAll()
		}
		n.batchReqs = reqs[:0]
		if len(reqs) > 0 {
			decs = n.batchDecs[:len(reqs)]
			ref.scheduleBatch(reqs, decs)
		}
	}

	// Cycle charging: the fixed share of the pipeline stage is paid
	// once per burst (out[0].Batched tells the model how many packets
	// that charge covers); the remainder of every stage is per packet.
	// Sharding adds one doorbell per shard lane the burst touched.
	cycles := n.cfg.Costs.PipelineBatch + n.cfg.Costs.ShardDoorbell*int64(doorbells)
	perPkt := n.cfg.Costs.Pipeline - n.cfg.Costs.PipelineBatch
	di := 0
	for i := 0; i < k; i++ {
		p := batch[i]
		pc := perPkt + n.cfg.Costs.Parse
		if hits[i] {
			pc += n.cfg.Costs.CacheHit
		} else {
			pc += n.cfg.Costs.CacheMiss
			if evs[i] {
				pc += n.cfg.Costs.CacheEvict
			}
		}
		// Offload lookup: the flow-binding check against the rule
		// table. Packets of un-offloaded flows pay the exception-path
		// charge here and the host detour below (only if they survive
		// scheduling). Shard-dropped packets are still observed (the
		// flow-binding check precedes the feed-lane offer on the NP
		// pipeline).
		fast := true
		if n.off != nil && lbls[i] != nil {
			fast = n.off.ctl.Observe(p.App, p.Flow, p.WireBytes())
			if !fast {
				pc += n.cfg.Costs.SlowPath
			}
		}
		forward := true
		var reason DropReason
		switch {
		case lbls[i] == nil:
			forward = false
			reason = DropUnclassified
		case sched != nil && n.batchShardDrop[i]:
			// Steered, but the shard's feed lane was full; the packet
			// never reached the scheduling function.
			pc += n.cfg.Costs.ShardSteer
			forward = false
			reason = DropShardRing
		case sched != nil:
			if ref.lanes != nil {
				pc += n.cfg.Costs.ShardSteer
			}
			d := &decs[di]
			di++
			pc += n.cfg.Costs.SchedPerClass*int64(len(lbls[i].Path)) + n.cfg.Costs.Meter
			pc += n.cfg.Costs.Update * int64(d.Updates)
			if d.Verdict == dataplane.Drop || d.Borrowed {
				// Red leaf meter ⇒ the borrow chain was walked (fully
				// on drop, partially on a successful borrow).
				pc += n.cfg.Costs.Borrow * int64(len(lbls[i].Borrow))
			}
			if d.Verdict == dataplane.Drop {
				forward = false
				reason = DropSched
			}
			p.Marked = d.Marked
		}
		// A forwarded packet of an un-offloaded flow detours through
		// the scheduled host slow path; admission (and any shed)
		// happens at completion time against the slow path's backlog
		// then.
		n.batchSlowLeaf[i] = nil
		if forward && !fast {
			n.batchSlowLeaf[i] = lbls[i].Leaf
		}
		if forward {
			pc += n.cfg.Costs.TxEnqueue
		}
		cycles += pc
		n.batchFwd[i] = forward
		n.batchReason[i] = reason
	}

	n.stats.BusyCycles += float64(cycles)
	if n.tel != nil {
		n.tel.busyCycles.Add(cycles)
	}
	n.stats.ClusterBusyCycles[cl.id] += float64(cycles)

	// One memory-stall window per burst: latency includes it, while ME
	// occupancy hides it behind the other thread contexts (§III-B), the
	// batch's contexts overlapping their stalls exactly as the ME's
	// thread contexts do. The ME is released to pull its next burst
	// after the occupancy time; the packets themselves complete
	// (reorder system → traffic manager) after the full latency.
	total := cycles + n.cfg.Costs.MemStall
	occupancy := (total + int64(n.cfg.ThreadsPerME) - 1) / int64(n.cfg.ThreadsPerME)
	if occupancy < cycles {
		occupancy = cycles
	}
	occupancyNs := int64(float64(occupancy) / n.cfg.CoreFreqHz * 1e9)
	latencyNs := int64(float64(total) / n.cfg.CoreFreqHz * 1e9)
	now := n.eng.Now()
	n.eng.Schedule(now+occupancyNs, (*releaseEvent)(n), uint64(cl.id))
	// One completion event finishes the whole burst, in sequence order:
	// the order k per-packet events at this instant would fire in, since
	// they would carry consecutive engine sequence numbers with nothing
	// scheduled between them.
	first := n.seqIssue
	for i := 0; i < k; i++ {
		*n.issue() = inflight{
			p:        batch[i],
			slowLeaf: n.batchSlowLeaf[i],
			reason:   n.batchReason[i],
			fwd:      n.batchFwd[i],
		}
	}
	n.inflight[first&n.inflightMask].burst = k
	n.eng.Schedule(now+latencyNs, (*completionEvent)(n), first)
}

// issue claims the next service sequence's in-flight record, doubling
// the ring first when every slot is taken.
func (n *NIC) issue() *inflight {
	if n.seqIssue-n.seqNext == uint64(len(n.inflight)) {
		ring := make([]inflight, 2*len(n.inflight))
		mask := uint64(len(ring) - 1)
		for seq := n.seqNext; seq != n.seqIssue; seq++ {
			ring[seq&mask] = n.inflight[seq&n.inflightMask]
		}
		n.inflight, n.inflightMask = ring, mask
	}
	r := &n.inflight[n.seqIssue&n.inflightMask]
	n.seqIssue++
	return r
}

// completeBurst finishes the burst whose first sequence is first, in
// sequence order. The ring is re-read for every packet: a completion can
// re-enter Inject synchronously (OnDrop → transport → Inject), and the
// burst that starts there may grow the ring mid-loop.
func (n *NIC) completeBurst(first uint64) {
	k := n.inflight[first&n.inflightMask].burst
	for seq := first; seq < first+uint64(k); seq++ {
		r := &n.inflight[seq&n.inflightMask]
		n.completeService(seq, r.p, r.fwd, r.reason, r.slowLeaf)
	}
}

// settle marks seq's routine completed, leaving p (nil for a released
// slot) for releaseInOrder.
func (n *NIC) settle(seq uint64, p *packet.Packet) {
	r := &n.inflight[seq&n.inflightMask]
	r.p, r.done = p, true
}

// completeService finishes one packet's run-to-completion routine and
// hands it to the reorder system. A forwarded packet of an un-offloaded
// flow (slowLeaf != nil) instead releases its reorder slot empty and
// detours through the scheduled host slow path — it re-enters the
// transmit path when the host qdisc serves it, so fast-path completions
// behind it are not head-of-line blocked by the detour — or is shed
// (DropSlowPath) when the slow path's admission bound refuses it.
func (n *NIC) completeService(seq uint64, p *packet.Packet, forward bool, reason DropReason, slowLeaf *tree.Class) {
	if forward && slowLeaf != nil && n.off != nil {
		n.settle(seq, nil) // slot released; the packet detours
		if !n.off.sp.admit(p, slowLeaf) {
			n.stats.SlowPathDrops++
			if n.tel != nil {
				n.tel.dropSlow.Add(1)
			}
			n.drop(p, DropSlowPath)
			n.freeBuffer()
		}
		n.releaseInOrder()
		return
	}
	if forward {
		n.settle(seq, p)
	} else {
		switch reason {
		case DropSched:
			n.stats.SchedDrops++
			if n.tel != nil {
				n.tel.dropSched.Add(1)
			}
		case DropUnclassified:
			n.stats.Unclassified++
			if n.tel != nil {
				n.tel.dropUncl.Add(1)
			}
		case DropShardRing:
			n.stats.ShardRingDrops++
			if n.tel != nil {
				n.tel.dropShardRing.Add(1)
			}
		case DropSlowPath:
			n.stats.SlowPathDrops++
			if n.tel != nil {
				n.tel.dropSlow.Add(1)
			}
		}
		n.drop(p, reason)
		n.freeBuffer()
		n.settle(seq, nil) // release the sequence slot
	}
	n.releaseInOrder()
}

// releaseInOrder feeds contiguous completed sequences to the traffic
// manager, restoring service-begin order.
func (n *NIC) releaseInOrder() {
	for n.seqNext != n.seqIssue {
		r := &n.inflight[n.seqNext&n.inflightMask]
		if !r.done {
			return
		}
		p := r.p
		*r = inflight{}
		n.seqNext++
		if p != nil {
			n.txEnqueue(p)
		}
	}
}

func (n *NIC) pullNext() *packet.Packet {
	for i := 0; i < len(n.ringOrder); i++ {
		idx := (n.nextRing + i) % len(n.ringOrder)
		if p := n.ringOrder[idx].Pop(); p != nil {
			n.nextRing = (idx + 1) % len(n.ringOrder)
			if n.tel != nil {
				n.tel.ringPkts.Add(-1)
			}
			return p
		}
	}
	return nil
}

// txEnqueue places a forwarded packet into its wire port's traffic-manager
// queue. Port selection is by flow so per-flow order is preserved (the
// NP reorder system guarantees the same property).
func (n *NIC) txEnqueue(p *packet.Packet) {
	if fvassert.Enabled && packet.Poisoned(p) {
		fvassert.Failf("nic: txEnqueue of freed packet %d", p.ID)
	}
	port := n.ports[int(p.Flow)%len(n.ports)]
	if !port.queue.TryPush(p) {
		n.stats.TMDrops++
		if n.tel != nil {
			n.tel.dropTM.Add(1)
		}
		n.freeBuffer()
		n.drop(p, DropTM)
		return
	}
	if n.tel != nil {
		n.tel.tmBytes.Add(float64(p.Size))
		n.tel.tmPkts.Add(1)
	}
	if !port.active {
		port.active = true
		n.drainPort(port)
	}
}

// drainPort serializes the head packet onto the wire and re-arms itself
// while the queue is non-empty.
func (n *NIC) drainPort(port *wirePort) {
	p := port.queue.Pop()
	if p == nil {
		port.active = false
		return
	}
	if n.tel != nil {
		n.tel.tmBytes.Add(-float64(p.Size))
		n.tel.tmPkts.Add(-1)
	}
	portRate := n.cfg.WireRateBps / float64(len(n.ports))
	txNs := int64(float64(p.WireBytes()*8) / portRate * 1e9)
	now := n.eng.Now()
	if port.freeAt < now {
		port.freeAt = now
	}
	port.freeAt += txNs
	port.cur, port.curDone = p, port.freeAt
	n.eng.Schedule(port.freeAt, (*txEvent)(n), uint64(port.id))
}

// txDone delivers the packet that just left port's wire and serializes
// the next one.
func (n *NIC) txDone(port *wirePort) {
	p, done := port.cur, port.curDone
	port.cur = nil
	if fvassert.Enabled && packet.Poisoned(p) {
		fvassert.Failf("nic: tx completion of freed packet %d", p.ID)
	}
	p.EgressAt = done + n.cfg.FixedLatencyNs
	n.stats.Delivered++
	if n.tel != nil {
		n.tel.delivered.Add(1)
		n.tel.deliveredBytes.Add(int64(p.Size))
	}
	n.freeBuffer()
	if n.cb.OnDeliver != nil {
		n.cb.OnDeliver(p)
	}
	n.drainPort(port)
}

func (n *NIC) drop(p *packet.Packet, reason DropReason) {
	if n.cb.OnDrop != nil {
		n.cb.OnDrop(p, reason)
	}
}

// Compile-time capability checks: the NIC is the reference
// dataplane.Qdisc and advertises every optional probe.
var (
	_ dataplane.Qdisc         = (*NIC)(nil)
	_ dataplane.Backlogger    = (*NIC)(nil)
	_ dataplane.Swapper       = (*NIC)(nil)
	_ dataplane.TelemetrySink = (*NIC)(nil)
)

// Enqueue implements dataplane.Qdisc; it is Inject under the interface's
// name.
func (n *NIC) Enqueue(p *packet.Packet) { n.Inject(p) }

// QdiscStats implements dataplane.Qdisc, folding every NIC drop reason
// into the interface's single Dropped counter. Use Stats for the
// per-reason breakdown.
func (n *NIC) QdiscStats() dataplane.Stats {
	return dataplane.Stats{
		Enqueued:  n.stats.Injected,
		Delivered: n.stats.Delivered,
		Dropped: n.stats.SchedDrops + n.stats.RxRingDrops + n.stats.TMDrops +
			n.stats.Unclassified + n.stats.BufferDrops + n.stats.ShardRingDrops +
			n.stats.SlowPathDrops,
	}
}

// Backlog implements dataplane.Backlogger: packets waiting in the Rx
// rings plus the traffic-manager port queues.
func (n *NIC) Backlog() int {
	total := 0
	for _, r := range n.ringOrder {
		total += r.Len()
	}
	for _, p := range n.ports {
		total += p.queue.Len()
	}
	return total
}

// FlowCacheStats implements dataplane.FlowCacher: a snapshot of the
// exact-match flow cache in front of the classification pipeline.
func (n *NIC) FlowCacheStats() dataplane.FlowCacheStats {
	st := n.cls.Stats()
	return dataplane.FlowCacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		ParseErrors:   st.ParseErrors,
		Invalidations: st.Invalidations,
		Size:          st.Size,
		Negative:      st.Negative,
		Capacity:      st.Capacity,
		Shards:        st.Shards,
	}
}

// Swap implements dataplane.Swapper, replacing the scheduling function
// in place (policy hot-swap; in-flight completions keep their original
// verdicts). A nil scheduler turns the NIC into a pass-through. The
// store is atomic, so Swap may be called from outside the DES goroutine
// while the service loop is scheduling packets.
func (n *NIC) Swap(s dataplane.Scheduler) {
	if v := reflect.ValueOf(s); s != nil && v.Kind() == reflect.Pointer && v.IsNil() {
		s = nil
	}
	n.sched.Store(n.newSchedRef(s))
}
