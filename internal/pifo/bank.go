package pifo

import "flowvalve/internal/fvassert"

// filter selects a bank's rank-admission test; it is fixed from
// Config.Backend at construction.
type filter uint8

const (
	// filterNone admits on capacity alone (exact PIFO and Eiffel on the
	// label plane, SP-PIFO on both).
	filterNone filter = iota
	// filterQuantile is AIFO: admit iff the rank's windowed quantile
	// count fits the free fraction inflated by the burst allowance,
	// countLess(r) ≤ W/(1-θ)·free.
	filterQuantile
	// filterRange is RIFO: normalize the rank against the windowed
	// [min, max] and admit iff (r-min)/(max-min) ≤ free.
	filterRange
	// filterHorizon is FlowValve's specialized tail drop as a rank
	// predicate (fvrank): reject a rank more than the horizon ahead of
	// now — under the deadline policy, the instant the sender's token
	// schedule covers the packet.
	filterHorizon
)

// bank is the pifo family's one admission kernel, shared by both
// planes: per-band occupancy levels, SP-PIFO's rank-to-band mapping
// when there is more than one band, and one rank filter. The planes
// differ only in the charge unit — the Qdisc charges 1 per packet
// against CapPkts and keeps an entryRing per band (bankQueue); the
// Sched charges the packet's bytes against CapPkts·virtualMTU and
// drains the levels in strict-priority order at the link rate.
//
// SP-PIFO ("SP-PIFO: Approximating Push-In First-Out Behaviors using
// Strict-Priority Queues") maps an arrival with rank r by scanning the
// bands bottom-up (lowest priority first) and joining the first whose
// bound it meets:
//
//   - r >= bounds[i]: push-up — the band's bound chases the highest rank
//     it has accepted (bounds[i] = r), so bounds spread out to
//     partition the live rank distribution.
//
//   - r < bounds[0] (better than every bound): push-down — a band-0
//     admission here would dequeue behind band-0 packets with worse
//     ranks, a guaranteed inversion. All bounds shift down by the miss
//     cost (bounds[0] - r) and the packet joins band 0.
//
// Inversions still happen within a band (it is FIFO), which is exactly
// the error the accuracy lab measures against the exact oracle.
type bank struct {
	levels    []int64 // per-band occupancy, in charge units
	bandCap   int64   // per-band capacity, in charge units
	bounds    []Rank  // SP-PIFO band bounds; nil for a single band
	filter    filter
	win       rankWindow // AIFO/RIFO rank window
	scale     float64    // AIFO's W/(1-θ)
	horizonNs int64      // fvrank's admission horizon
	st        QueueStats
}

// newBank builds the kernel for cfg.Backend with capacity CapPkts·unit
// (split evenly over SP-PIFO's bands, at least one unit each).
func newBank(cfg *Config, unit int64) bank {
	b := bank{levels: make([]int64, 1), bandCap: int64(cfg.CapPkts) * unit}
	switch cfg.Backend {
	case BackendSPPIFO:
		b.levels = make([]int64, cfg.Bands)
		b.bounds = make([]Rank, cfg.Bands)
		b.bandCap = max(b.bandCap/int64(cfg.Bands), unit)
	case BackendAIFO:
		headroom := min(max(cfg.Headroom, 0), 0.9)
		b.filter = filterQuantile
		b.win = newRankWindow(cfg.WindowPkts)
		b.scale = float64(cfg.WindowPkts) / (1 - headroom)
	case BackendRIFO:
		b.filter = filterRange
		b.win = newRankWindow(cfg.WindowPkts)
	case BackendTaildrop:
		b.filter = filterHorizon
		b.horizonNs = cfg.HorizonNs
	}
	return b
}

// admit decides one arrival of rank r costing charge units at nowNs and
// charges its band on success. The side effects run in a fixed order:
// map to a band and observe the rank window (always), then count a
// FullDrop if the band cannot take the charge, else a RankDrop if the
// filter rejects.
//
//fv:hotpath
func (b *bank) admit(r Rank, charge, nowNs int64) (band int, ok bool) {
	var quantile int
	var lo, hi Rank
	var seeded bool
	switch b.filter {
	case filterQuantile:
		quantile = b.win.countLess(r)
		b.win.observe(r)
	case filterRange:
		lo, hi, seeded = b.win.bounds()
		b.win.observe(r)
	}
	if b.bounds != nil {
		band = b.admitBand(r)
	}
	level := b.levels[band]
	if level+charge > b.bandCap {
		b.st.FullDrops++
		return band, false
	}
	free := float64(b.bandCap-level) / float64(b.bandCap)
	switch b.filter {
	case filterQuantile:
		ok = float64(quantile) <= b.scale*free
	case filterRange:
		ok = rifoAdmit(r, lo, hi, seeded, free)
	case filterHorizon:
		ok = int64(r) <= nowNs+b.horizonNs
	default:
		ok = true
	}
	if !ok {
		b.st.RankDrops++
		return band, false
	}
	b.levels[band] += charge
	b.st.Admitted++
	return band, true
}

// rifoAdmit is RIFO's range test. Before the window has seen two
// distinct ranks it degenerates to plain tail drop.
//
//fv:hotpath
func rifoAdmit(r, lo, hi Rank, seeded bool, free float64) bool {
	if !seeded || hi == lo || r <= lo {
		return true
	}
	if r > hi {
		r = hi
	}
	return float64(r-lo) <= float64(hi-lo)*free
}

// drain releases charge units in strict-priority order, band 0 first.
//
//fv:hotpath
func (b *bank) drain(charge int64) {
	for i := range b.levels {
		if charge <= 0 {
			return
		}
		take := min(b.levels[i], charge)
		b.levels[i] -= take
		charge -= take
	}
}

// admitBand runs the SP-PIFO mapping: it picks the band for rank r and
// applies the push-up/push-down bound adaptation.
//
//fv:hotpath
func (b *bank) admitBand(r Rank) int {
	for i := len(b.bounds) - 1; i >= 0; i-- {
		if r >= b.bounds[i] {
			if b.bounds[i] != r {
				b.bounds[i] = r
				b.st.PushUps++
			}
			b.repairBounds(i)
			return i
		}
	}
	cost := b.bounds[0] - r
	for i := range b.bounds {
		b.bounds[i] -= cost
	}
	b.st.PushDowns++
	return 0
}

// repairBounds restores the ascending-bounds invariant after a push-up
// on band i. SP-PIFO's scan order alone keeps bounds sorted in the
// paper's model; clamping makes that explicit and lets fvassert verify
// it cheaply.
//
//fv:hotpath
func (b *bank) repairBounds(i int) {
	for j := i + 1; j < len(b.bounds); j++ {
		if b.bounds[j] >= b.bounds[j-1] {
			break
		}
		b.bounds[j] = b.bounds[j-1]
	}
	if fvassert.Enabled {
		for j := 1; j < len(b.bounds); j++ {
			if b.bounds[j] < b.bounds[j-1] {
				fvassert.Failf("pifo: sp-pifo bounds unsorted at %d: %d < %d", j, b.bounds[j], b.bounds[j-1])
			}
		}
	}
}

// bankQueue is the Qdisc plane over the kernel (SP-PIFO, AIFO, RIFO,
// fvrank): one FIFO ring per band, charged one unit per packet, served
// in strict priority. With one band it is AIFO's/RIFO's/fvrank's single
// FIFO, where all policy lives in admission.
type bankQueue struct {
	bank
	rings []entryRing
}

func newBankQueue(cfg *Config) *bankQueue {
	q := &bankQueue{bank: newBank(cfg, 1)}
	q.rings = make([]entryRing, len(q.levels))
	for i := range q.rings {
		q.rings[i].presize(int(q.bandCap))
	}
	return q
}

//fv:hotpath
func (q *bankQueue) push(e entry, nowNs int64) (entry, bool) {
	band, ok := q.admit(e.rank, 1, nowNs)
	if ok {
		q.rings[band].push(e)
	}
	return entry{}, ok
}

//fv:hotpath
func (q *bankQueue) pop() (entry, bool) {
	for i := range q.rings {
		if e, ok := q.rings[i].pop(); ok {
			q.levels[i]--
			return e, true
		}
	}
	return entry{}, false
}

//fv:hotpath
func (q *bankQueue) peek() (entry, bool) {
	for i := range q.rings {
		if e, ok := q.rings[i].peek(); ok {
			return e, true
		}
	}
	return entry{}, false
}

//fv:hotpath
func (q *bankQueue) len() int {
	n := 0
	for i := range q.rings {
		n += q.rings[i].len()
	}
	return n
}

func (q *bankQueue) stats() *QueueStats { return &q.st }

// rankWindow is the sliding window of recently seen ranks of the
// AIFO and RIFO admission filters. It observes every arrival (admitted
// or dropped) in a fixed ring and answers rank-distribution queries by
// linear scan — W is small (tens), so a scan is cheaper and
// allocation-free compared to maintaining an ordered structure.
type rankWindow struct {
	ring []Rank
	next int
	n    int // filled entries, ≤ len(ring)
}

func newRankWindow(w int) rankWindow {
	return rankWindow{ring: make([]Rank, max(w, 1))}
}

//fv:hotpath
func (w *rankWindow) observe(r Rank) {
	w.ring[w.next] = r
	w.next++
	if w.next == len(w.ring) {
		w.next = 0
	}
	if w.n < len(w.ring) {
		w.n++
	}
}

// countLess reports how many windowed ranks are strictly below r — the
// numerator of AIFO's quantile estimate.
//
//fv:hotpath
func (w *rankWindow) countLess(r Rank) int {
	c := 0
	for i := 0; i < w.n; i++ {
		if w.ring[i] < r {
			c++
		}
	}
	return c
}

// bounds returns the windowed min and max rank — RIFO's normalization
// range. ok is false while the window is empty.
//
//fv:hotpath
func (w *rankWindow) bounds() (lo, hi Rank, ok bool) {
	if w.n == 0 {
		return 0, 0, false
	}
	lo, hi = w.ring[0], w.ring[0]
	for i := 1; i < w.n; i++ {
		if w.ring[i] < lo {
			lo = w.ring[i]
		}
		if w.ring[i] > hi {
			hi = w.ring[i]
		}
	}
	return lo, hi, true
}
