package pifo

import (
	"testing"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/packet"
	"flowvalve/internal/sim"
)

// benchSched builds a label-plane scheduler over a 4-leaf tree; the
// request slice mirrors the root BenchmarkScheduleBatch32 shape (32
// full-size packets per call).
func benchSched(tb testing.TB, backend string, clk clock.Clock) ([]dataplane.Request, []dataplane.Decision, *Sched) {
	tr := testTree(tb, 4)
	labels := testLabels(tb, tr, 4)
	s := newTestSched(tb, backend, PolicyWFQ, clk, tr, 4)
	reqs := make([]dataplane.Request, 32)
	for i := range reqs {
		reqs[i] = dataplane.Request{Label: labels[i%len(labels)], Size: 1500}
	}
	return reqs, make([]dataplane.Decision, len(reqs)), s
}

// BenchmarkPifoScheduleBatch32 is the family's analogue of the root
// BenchmarkScheduleBatch32: ns and allocs per 32-packet batch decision
// on the label plane, per backend. The CI bench gate tracks these
// alongside the FlowValve core numbers.
func BenchmarkPifoScheduleBatch32(b *testing.B) {
	for _, spec := range Backends() {
		b.Run(spec.Name, func(b *testing.B) {
			reqs, out, s := benchSched(b, spec.Name, clock.NewWall())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScheduleBatch(reqs, out)
			}
		})
	}
}

// TestScheduleBatchZeroAlloc enforces the acceptance bar directly: the
// admit hot path allocates nothing per batch once warm. Eiffel and AIFO
// are the backends the issue names; the whole family clears the same
// bar, so all are pinned.
func TestScheduleBatchZeroAlloc(t *testing.T) {
	for _, spec := range Backends() {
		t.Run(spec.Name, func(t *testing.T) {
			reqs, out, s := benchSched(t, spec.Name, clock.NewManual(0))
			s.ScheduleBatch(reqs, out) // warm up
			if avg := testing.AllocsPerRun(200, func() { s.ScheduleBatch(reqs, out) }); avg != 0 {
				t.Errorf("ScheduleBatch allocates %.1f objects per call, want 0", avg)
			}
		})
	}
}

// TestQueueHotPathZeroAlloc pins the Qdisc-plane structures: once the
// rings are pre-sized, admit and dequeue allocate nothing. The exact
// PIFO is exempt — its heap grows by design (append into reserved
// capacity; steady-state is allocation-free but drop-worst compaction
// may re-slice), and it is the oracle, not a production path.
func TestQueueHotPathZeroAlloc(t *testing.T) {
	for _, backend := range []string{BackendSPPIFO, BackendAIFO, BackendRIFO, BackendEiffel, BackendTaildrop} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{Backend: backend}
			cfg.Defaults()
			rq, err := newQueue(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			var alloc packet.Alloc
			p := alloc.New(1, 1, 1000, 0)
			var seq uint64
			rng := sim.NewRNG(5)
			cycle := func() {
				for i := 0; i < 16; i++ {
					seq++
					rq.push(entry{rank: Rank(rng.Int63n(1 << 20)), seq: seq, pkt: p}, 0)
				}
				for i := 0; i < 16; i++ {
					rq.pop()
				}
			}
			cycle() // warm up rings
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("push/pop cycle allocates %.2f objects per run, want 0", avg)
			}
		})
	}
}

// BenchmarkQueuePushPop measures the raw structure cost per
// push+pop pair, per backend.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, spec := range Backends() {
		b.Run(spec.Name, func(b *testing.B) {
			cfg := Config{Backend: spec.Name}
			cfg.Defaults()
			rq, err := newQueue(&cfg)
			if err != nil {
				b.Fatal(err)
			}
			var alloc packet.Alloc
			p := alloc.New(1, 1, 1000, 0)
			rng := sim.NewRNG(5)
			// Keep ~512 entries resident so pops traverse real state.
			for i := 0; i < 512; i++ {
				rq.push(entry{rank: Rank(rng.Int63n(1 << 20)), seq: uint64(i), pkt: p}, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rq.push(entry{rank: Rank(rng.Int63n(1 << 20)), seq: uint64(i + 512), pkt: p}, 0)
				rq.pop()
			}
		})
	}
}
