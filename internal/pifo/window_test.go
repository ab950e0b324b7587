package pifo

import (
	"fmt"
	"math"
	"testing"

	"flowvalve/internal/sim"
)

// scanWindow is the reference rank window: the same ring as rankWindow,
// answering every query by a full rescan. It is the estimator rankWindow
// replaced, kept here as the oracle for the incremental one.
type scanWindow struct {
	ring []Rank
	next int
	n    int
}

func (w *scanWindow) observe(r Rank) {
	w.ring[w.next] = r
	w.next = (w.next + 1) % len(w.ring)
	w.n = min(w.n+1, len(w.ring))
}

func (w *scanWindow) countLess(r Rank) int {
	c := 0
	for i := 0; i < w.n; i++ {
		if w.ring[i] < r {
			c++
		}
	}
	return c
}

func (w *scanWindow) bounds() (lo, hi Rank, ok bool) {
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

// windowSequences are the rank streams the differential test replays:
// each is long enough for the fill phase plus at least three wraps of
// the largest window tested.
func windowSequences(n int) map[string][]Rank {
	seqs := map[string][]Rank{
		"ties":     make([]Rank, n),
		"rising":   make([]Rank, n),
		"falling":  make([]Rank, n),
		"random":   make([]Rank, n),
		"extreme":  make([]Rank, n),
		"sawtooth": make([]Rank, n),
	}
	rng := sim.NewRNG(11)
	extremes := []Rank{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1, 1}
	for i := range n {
		seqs["ties"][i] = 42
		seqs["rising"][i] = Rank(i)
		seqs["falling"][i] = Rank(n - i)
		seqs["random"][i] = Rank(rng.Int63n(64)) // small range: ties mixed in
		seqs["extreme"][i] = extremes[rng.Intn(len(extremes))]
		seqs["sawtooth"][i] = Rank(i % 7)
	}
	return seqs
}

// TestRankWindowMatchesFullScan drives the incremental window and the
// full-scan reference with the same ranks and requires equal answers at
// every step: RIFO's bounds on a range window, and AIFO's countLess —
// probed at the arriving rank, its neighbours and both int64 extremes —
// on a quantile window.
func TestRankWindowMatchesFullScan(t *testing.T) {
	const steps = 5*64 + 3
	for _, w := range []int{1, 2, 3, 64} {
		for name, seq := range windowSequences(steps) {
			t.Run(fmt.Sprintf("W=%d/%s", w, name), func(t *testing.T) {
				rng, quant := newRangeWindow(w), newRankWindow(w)
				ref := scanWindow{ring: make([]Rank, w)}
				for i, r := range seq {
					lo, hi, ok := rng.bounds()
					rlo, rhi, rok := ref.bounds()
					if lo != rlo || hi != rhi || ok != rok {
						t.Fatalf("step %d: bounds = (%d, %d, %v), full scan (%d, %d, %v)", i, lo, hi, ok, rlo, rhi, rok)
					}
					for _, q := range []Rank{r, r - 1, r + 1, math.MinInt64, math.MaxInt64} {
						if got, want := quant.countLess(q), ref.countLess(q); got != want {
							t.Fatalf("step %d: countLess(%d) = %d, full scan %d", i, q, got, want)
						}
					}
					rng.observeRange(r)
					quant.observe(r)
					ref.observe(r)
				}
			})
		}
	}
}

// wfqRanks is a WFQ-like rank stream: start-time fair queueing over
// four apps of weights 4:3:2:1 offered 1500-byte frames above the link
// rate, so ranks mostly rise with now but jitter between apps.
func wfqRanks(n int) []Rank {
	rng := sim.NewRNG(7)
	weights := [4]int64{4, 3, 2, 1}
	var finish [4]int64
	ranks := make([]Rank, n)
	var now int64
	for i := range ranks {
		now += 240 // one 1500-byte frame at 50 Gbit/s
		app := rng.Intn(len(weights))
		start := max(now, finish[app])
		finish[app] = start + 3000/weights[app] // 40 Gbit/s split by weight
		ranks[i] = Rank(start)
	}
	return ranks
}

var windowSink int64

// BenchmarkRankWindow prices the AIFO/RIFO estimators alone at W = 64:
// one observe plus one query per op, on WFQ-like ranks.
func BenchmarkRankWindow(b *testing.B) {
	ranks := wfqRanks(4096)
	b.Run("range", func(b *testing.B) {
		w := newRangeWindow(64)
		for i := 0; i < b.N; i++ {
			r := ranks[i&(len(ranks)-1)]
			lo, hi, _ := w.bounds()
			w.observeRange(r)
			windowSink += int64(hi - lo)
		}
	})
	b.Run("quantile", func(b *testing.B) {
		w := newRankWindow(64)
		for i := 0; i < b.N; i++ {
			r := ranks[i&(len(ranks)-1)]
			windowSink += int64(w.countLess(r))
			w.observe(r)
		}
	})
}
