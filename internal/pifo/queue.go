package pifo

import "flowvalve/internal/packet"

// entry is one queued packet with its admission-time rank. seq is a
// monotone arrival sequence number used to break rank ties FIFO — it
// makes every backend's dequeue order a total order, which the
// conformance tests and the exact-PIFO oracle cross-check rely on.
type entry struct {
	rank Rank
	seq  uint64
	pkt  *packet.Packet
}

// before reports whether e dequeues ahead of o: lower rank first,
// earlier arrival breaking ties.
//
//fv:hotpath
func (e entry) before(o entry) bool {
	if e.rank != o.rank {
		return e.rank < o.rank
	}
	return e.seq < o.seq
}

// QueueStats counts a backend queue's admission and adaptation events.
// The Qdisc and Sched wrappers export these through telemetry; the
// fields mirror the fv_pifo_* metric family.
type QueueStats struct {
	// Admitted counts entries accepted by the admission filter.
	Admitted uint64
	// RankDrops counts arrivals rejected by rank admission (AIFO/RIFO
	// window rejection, fvrank horizon misses, exact-PIFO worst-rank
	// rejections).
	RankDrops uint64
	// FullDrops counts arrivals rejected because their band (or the
	// whole structure) was at capacity, before any rank filter ran.
	FullDrops uint64
	// EvictDrops counts already-queued entries displaced by a
	// better-ranked arrival (exact PIFO drop-worst).
	EvictDrops uint64
	// PushUps / PushDowns count SP-PIFO bound adaptations.
	PushUps   uint64
	PushDowns uint64
}

// rankQueue is the structural contract each Qdisc-plane structure
// implements: push admits an entry arriving at nowNs, pop yields the
// structure's best entry. A push may displace a queued entry (exact
// PIFO's drop-worst); the displaced packet comes back in evicted
// (evicted.pkt == nil means none) so the Qdisc can account the drop.
// Implementations are single-consumer and not concurrent-safe — the DES
// runs them single-threaded.
type rankQueue interface {
	push(e entry, nowNs int64) (evicted entry, admitted bool)
	pop() (entry, bool)
	peek() (entry, bool)
	len() int
	stats() *QueueStats
}

// entryRing is a growable FIFO ring of entries, the building block for
// the banded and bucketed backends. It mirrors pktq.FIFO but holds
// rank-stamped entries and is unbounded — capacity policy lives in the
// backend's admission logic, not in the ring.
type entryRing struct {
	buf  []entry
	head int
	size int
}

const entryRingMinCap = 8

//fv:hotpath
func (r *entryRing) push(e entry) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = e
	r.size++
}

//fv:hotpath
func (r *entryRing) pop() (entry, bool) {
	if r.size == 0 {
		return entry{}, false
	}
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return e, true
}

//fv:hotpath
func (r *entryRing) peek() (entry, bool) {
	if r.size == 0 {
		return entry{}, false
	}
	return r.buf[r.head], true
}

//fv:hotpath
func (r *entryRing) len() int { return r.size }

// grow doubles the ring (cold path: amortized, and backends that
// pre-size past their admission cap never hit it after warm-up).
func (r *entryRing) grow() {
	capNew := len(r.buf) * 2
	if capNew < entryRingMinCap {
		capNew = entryRingMinCap
	}
	buf := make([]entry, capNew)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// presize allocates capacity for at least n entries up front (rounded to
// a power of two) so hot paths never grow.
func (r *entryRing) presize(n int) {
	capNew := entryRingMinCap
	for capNew < n {
		capNew *= 2
	}
	if capNew > len(r.buf) {
		buf := make([]entry, capNew)
		for i := 0; i < r.size; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = buf
		r.head = 0
	}
}
