package pifo

import (
	"math/bits"

	"flowvalve/internal/fvassert"
)

// eiffel is the Eiffel backend ("Eiffel: Efficient and Flexible Software
// Packet Scheduling"): an approximate PIFO built from a circular array
// of rank buckets fronted by a find-first-set bitmap. Ranks quantize
// into fixed-width buckets (BucketNs wide); each bucket is a FIFO ring;
// occupancy is mirrored into a bitmap so dequeue is "find the first set
// bit at or after the cursor" — one or two TrailingZeros64 scans, O(1)
// in the number of queued packets.
//
// The approximation error is purely quantization: ranks within one
// bucket dequeue FIFO regardless of sub-bucket order. Ranks farther than
// nb buckets ahead of the cursor clamp into the last bucket (Eiffel's
// overflow bucket), and late ranks (behind the cursor) clamp to the
// cursor bucket so dequeue order stays monotone in bucket index.
type eiffel struct {
	buckets []entryRing
	bitmap  []uint64
	mask    int   // len(buckets)-1 (power of two)
	granNs  int64 // bucket width in rank units
	cursor  int64 // absolute slot of the current dequeue horizon
	cap     int
	size    int
	st      QueueStats
}

func newEiffel(capPkts, nbuckets int, granNs int64) *eiffel {
	nb := 1
	for nb < nbuckets {
		nb *= 2
	}
	if granNs < 1 {
		granNs = 1
	}
	q := &eiffel{
		buckets: make([]entryRing, nb),
		bitmap:  make([]uint64, (nb+63)/64),
		mask:    nb - 1,
		granNs:  granNs,
		cap:     capPkts,
	}
	want := capPkts / nb
	if want < entryRingMinCap {
		want = entryRingMinCap
	}
	for i := range q.buckets {
		q.buckets[i].presize(want)
	}
	return q
}

var _ rankQueue = (*eiffel)(nil)

// slotFor quantizes a rank into an absolute bucket slot, clamped into
// the live window [cursor, cursor+nb-1].
//
//fv:hotpath
func (q *eiffel) slotFor(r Rank) int64 {
	slot := int64(r) / q.granNs
	if slot < q.cursor {
		slot = q.cursor
	}
	if max := q.cursor + int64(q.mask); slot > max {
		slot = max
	}
	return slot
}

//fv:hotpath
func (q *eiffel) push(e entry, _ int64) (entry, bool) {
	if q.size >= q.cap {
		q.st.FullDrops++
		return entry{}, false
	}
	slot := q.slotFor(e.rank)
	idx := int(slot) & q.mask
	q.buckets[idx].push(e)
	q.bitmap[idx>>6] |= 1 << uint(idx&63)
	q.size++
	q.st.Admitted++
	return entry{}, true
}

//fv:hotpath
func (q *eiffel) pop() (entry, bool) {
	idx, ok := q.firstSet()
	if !ok {
		return entry{}, false
	}
	e, ok := q.buckets[idx].pop()
	if fvassert.Enabled && !ok {
		fvassert.Failf("pifo: eiffel bitmap bit %d set over empty bucket", idx)
	}
	if !ok {
		return entry{}, false
	}
	if q.buckets[idx].len() == 0 {
		q.bitmap[idx>>6] &^= 1 << uint(idx&63)
	}
	q.size--
	// Advance the cursor to the popped slot: everything earlier is gone.
	delta := int64((idx - int(q.cursor)) & q.mask)
	if fvassert.Enabled && delta < 0 {
		fvassert.Failf("pifo: eiffel cursor moved backwards by %d", -delta)
	}
	q.cursor += delta
	return e, true
}

//fv:hotpath
func (q *eiffel) peek() (entry, bool) {
	idx, ok := q.firstSet()
	if !ok {
		return entry{}, false
	}
	return q.buckets[idx].peek()
}

// firstSet finds the first occupied bucket index at or (circularly)
// after the cursor: mask the cursor word to bits at/after the cursor
// bit, then wrap word by word. At most 2·len(bitmap) word reads, each a
// single TrailingZeros64.
//
//fv:hotpath
func (q *eiffel) firstSet() (int, bool) {
	if q.size == 0 {
		return 0, false
	}
	start := int(q.cursor) & q.mask
	w0 := start >> 6
	words := len(q.bitmap)
	if word := q.bitmap[w0] &^ ((1 << uint(start&63)) - 1); word != 0 {
		return w0<<6 + bits.TrailingZeros64(word), true
	}
	for i := 1; i <= words; i++ {
		w := w0 + i
		if w >= words {
			w -= words
		}
		word := q.bitmap[w]
		if w == w0 {
			// Wrapped back to the cursor word: only bits before the
			// cursor remain unexamined.
			word &= (1 << uint(start&63)) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
	}
	if fvassert.Enabled {
		fvassert.Failf("pifo: eiffel size %d with empty bitmap", q.size)
	}
	return 0, false
}

//fv:hotpath
func (q *eiffel) len() int { return q.size }

func (q *eiffel) stats() *QueueStats { return &q.st }
