package pifo

import (
	"testing"

	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// naivePIFO is a deliberately simple reference implementation of the
// exact PIFO semantics: a sorted slice with insertion-sort admission and
// the same drop-worst policy. The heap is cross-checked against it under
// random rank streams.
type naivePIFO struct {
	entries []entry
	cap     int
}

func (n *naivePIFO) push(e entry) (entry, bool) {
	if len(n.entries) >= n.cap {
		worst := n.entries[len(n.entries)-1]
		if !e.before(worst) {
			return entry{}, false
		}
		n.entries = n.entries[:len(n.entries)-1]
		n.insert(e)
		return worst, true
	}
	n.insert(e)
	return entry{}, true
}

func (n *naivePIFO) insert(e entry) {
	i := 0
	for i < len(n.entries) && n.entries[i].before(e) {
		i++
	}
	n.entries = append(n.entries, entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = e
}

func (n *naivePIFO) pop() (entry, bool) {
	if len(n.entries) == 0 {
		return entry{}, false
	}
	e := n.entries[0]
	n.entries = n.entries[1:]
	return e, true
}

// TestExactPIFOMatchesNaiveOracle drives the heap and the sorted-slice
// reference with an identical random stream of interleaved pushes and
// pops (including sustained overload, so the drop-worst path runs) and
// requires identical admission results, identical evictions, and an
// identical dequeue sequence.
func TestExactPIFOMatchesNaiveOracle(t *testing.T) {
	const capPkts = 64
	for _, seed := range []uint64{1, 7, 0xfeed} {
		rng := sim.NewRNG(seed)
		heap := newExactPIFO(capPkts)
		oracle := &naivePIFO{cap: capPkts}
		var alloc packet.Alloc
		var seq uint64
		for op := 0; op < 20000; op++ {
			if rng.Float64() < 0.7 {
				e := entry{
					rank: Rank(rng.Int63n(500)), // narrow range forces rank ties
					seq:  seq,
					pkt:  alloc.New(packet.FlowID(seq), 0, 64, 0),
				}
				seq++
				hevict, hok := heap.push(e, 0)
				oevict, ook := oracle.push(e)
				if hok != ook {
					t.Fatalf("seed %d op %d: heap admitted=%v oracle admitted=%v", seed, op, hok, ook)
				}
				if hevict.rank != oevict.rank || hevict.seq != oevict.seq {
					t.Fatalf("seed %d op %d: heap evicted (%d,%d), oracle evicted (%d,%d)",
						seed, op, hevict.rank, hevict.seq, oevict.rank, oevict.seq)
				}
			} else {
				he, hok := heap.pop()
				oe, ook := oracle.pop()
				if hok != ook || he.rank != oe.rank || he.seq != oe.seq {
					t.Fatalf("seed %d op %d: heap popped (%d,%d,%v), oracle popped (%d,%d,%v)",
						seed, op, he.rank, he.seq, hok, oe.rank, oe.seq, ook)
				}
			}
			if heap.len() != len(oracle.entries) {
				t.Fatalf("seed %d op %d: heap len %d, oracle len %d", seed, op, heap.len(), len(oracle.entries))
			}
		}
		// Drain both: the tails must agree too.
		for {
			he, hok := heap.pop()
			oe, ook := oracle.pop()
			if hok != ook || he.rank != oe.rank || he.seq != oe.seq {
				t.Fatalf("seed %d drain: heap (%d,%d,%v), oracle (%d,%d,%v)",
					seed, he.rank, he.seq, hok, oe.rank, oe.seq, ook)
			}
			if !hok {
				break
			}
		}
	}
}

// TestExactPIFOStableTies pins the FIFO tie-break: equal ranks dequeue
// in arrival order.
func TestExactPIFOStableTies(t *testing.T) {
	q := newExactPIFO(16)
	var alloc packet.Alloc
	for i := uint64(0); i < 8; i++ {
		q.push(entry{rank: 42, seq: i, pkt: alloc.New(packet.FlowID(i), 0, 64, 0)}, 0)
	}
	for i := uint64(0); i < 8; i++ {
		e, ok := q.pop()
		if !ok || e.seq != i {
			t.Fatalf("tie pop %d: got seq %d ok=%v", i, e.seq, ok)
		}
	}
}
