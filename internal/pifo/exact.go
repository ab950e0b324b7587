package pifo

import "flowvalve/internal/fvassert"

// exactPIFO is the ground-truth backend: a binary min-heap ordered by
// (rank, seq), i.e. a real push-in-first-out queue with O(log n)
// admission and dequeue. Admission at capacity is drop-worst — the
// worst-ranked entry (arriving or queued) is the one discarded, which is
// what an idealized PIFO with finite SRAM does and what keeps the oracle
// ordering exact under overload. The other backends are judged against
// this one's dequeue order.
type exactPIFO struct {
	heap []entry
	cap  int
	st   QueueStats
}

func newExactPIFO(capPkts int) *exactPIFO {
	return &exactPIFO{heap: make([]entry, 0, capPkts), cap: capPkts}
}

var _ rankQueue = (*exactPIFO)(nil)

//fv:hotpath
func (q *exactPIFO) push(e entry, _ int64) (entry, bool) {
	if len(q.heap) >= q.cap {
		// Cold overload path: find the worst entry (max rank, newest
		// arrival). O(n) scan, but only while saturated, and capacity
		// is small (~1k).
		worst := 0
		for i := 1; i < len(q.heap); i++ {
			if q.heap[worst].before(q.heap[i]) {
				worst = i
			}
		}
		if !e.before(q.heap[worst]) {
			// The arrival is the worst: reject it.
			q.st.RankDrops++
			return entry{}, false
		}
		evicted := q.heap[worst]
		q.st.EvictDrops++
		// Remove the worst, then sift the displaced tail entry.
		last := len(q.heap) - 1
		q.heap[worst] = q.heap[last]
		q.heap[last] = entry{}
		q.heap = q.heap[:last]
		if worst < last {
			q.siftDown(worst)
			q.siftUp(worst)
		}
		q.insert(e)
		return evicted, true
	}
	q.insert(e)
	return entry{}, true
}

//fv:hotpath
func (q *exactPIFO) insert(e entry) {
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
	q.st.Admitted++
}

//fv:hotpath
func (q *exactPIFO) pop() (entry, bool) {
	if len(q.heap) == 0 {
		return entry{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = entry{}
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	if fvassert.Enabled && len(q.heap) > 0 && q.heap[0].before(top) {
		fvassert.Failf("pifo: exact heap popped rank %d seq %d after better root rank %d seq %d",
			top.rank, top.seq, q.heap[0].rank, q.heap[0].seq)
	}
	return top, true
}

//fv:hotpath
func (q *exactPIFO) peek() (entry, bool) {
	if len(q.heap) == 0 {
		return entry{}, false
	}
	return q.heap[0], true
}

//fv:hotpath
func (q *exactPIFO) len() int { return len(q.heap) }

func (q *exactPIFO) stats() *QueueStats { return &q.st }

//fv:hotpath
func (q *exactPIFO) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(q.heap[parent]) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

//fv:hotpath
func (q *exactPIFO) siftDown(i int) {
	n := len(q.heap)
	for {
		best := i
		l := 2*i + 1
		r := l + 1
		if l < n && q.heap[l].before(q.heap[best]) {
			best = l
		}
		if r < n && q.heap[r].before(q.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		q.heap[i], q.heap[best] = q.heap[best], q.heap[i]
		i = best
	}
}
