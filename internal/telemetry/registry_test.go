package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAddAndValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts_total", "packets")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("Value = %d, want 4", got)
	}
	// Get-or-create returns the same instance.
	if again := r.Counter("pkts_total", "packets"); again != c {
		t.Fatal("second Counter call returned a different instance")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

// Concurrent writers must spread across the counter's shards: 64 live
// goroutines, each adding once, have to reach more than half of the 16
// shards (a plain shift of the stack address reaches only the 8 odd
// ones).
func TestCounterShardsSpreadAcrossGoroutines(t *testing.T) {
	var c Counter
	const workers = 64
	var added, done sync.WaitGroup
	added.Add(workers)
	done.Add(1)
	var exited sync.WaitGroup
	exited.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer exited.Done()
			c.Add(1)
			added.Done()
			done.Wait() // stay alive so no two writers share a stack
		}()
	}
	added.Wait()
	done.Done()
	exited.Wait()
	used := 0
	for i := range c.shards {
		if c.shards[i].n.Load() != 0 {
			used++
		}
	}
	if c.Value() != workers {
		t.Fatalf("Value = %d, want %d", c.Value(), workers)
	}
	if used <= counterShards/2 {
		t.Fatalf("%d goroutines landed on %d of %d shards, want more than %d", workers, used, counterShards, counterShards/2)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("Value = %v, want 6.5", got)
	}
}

func TestLabelsIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "", Label{"class", "1:40"}, Label{"app", "kvs"})
	b := r.Counter("m", "", Label{"app", "kvs"}, Label{"class", "1:40"})
	if a != b {
		t.Fatal("label order changed metric identity")
	}
	c := r.Counter("m", "", Label{"class", "1:50"})
	if a == c {
		t.Fatal("different labels returned the same instance")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", DurationBucketsNs)
	r.CounterFunc("d", "", func() float64 { return 1 })
	r.GaugeFunc("e", "", func() float64 { return 1 })
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics reported nonzero values")
	}
	if got := r.collect(); got != nil {
		t.Fatalf("nil registry collect = %v, want nil", got)
	}
	if r.Dump() != "" {
		t.Fatal("nil registry Dump non-empty")
	}
}

func TestFuncCollectorsReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("theta", "", func() float64 { return 1 })
	r.GaugeFunc("theta", "", func() float64 { return 2 })
	out := r.Dump()
	if !strings.Contains(out, "theta 2") {
		t.Fatalf("replaced GaugeFunc not in effect:\n%s", out)
	}
	r.CounterFunc("fwd_total", "", func() float64 { return 7 }, Label{"class", "a"})
	if !strings.Contains(r.Dump(), `fwd_total{class="a"} 7`) {
		t.Fatalf("CounterFunc missing:\n%s", r.Dump())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 50, 500, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 5565 {
		t.Fatalf("Sum = %v, want 5565", got)
	}
	bounds, cum, sum, count := h.snapshot()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shape: %d bounds, %d counts", len(bounds), len(cum))
	}
	// 5,10 ≤ 10; 50 ≤ 100; 500 ≤ 1000; 5000 → +Inf.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if sum != 5565 || count != 5 {
		t.Fatalf("snapshot sum=%v count=%d", sum, count)
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending buckets did not panic")
		}
	}()
	newHistogram([]float64{10, 5})
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DurationBucketsNs)
	tr := NewTracer(1, 1024)
	ev := Event{AtNs: 1, Class: "leaf", Size: 64, Verdict: TraceForward}
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(3)
		h.Observe(500)
		tr.Record(ev)
	}); n != 0 {
		t.Fatalf("hot path allocated %.1f times per op", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("c", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", DurationBucketsNs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 0xffff))
	}
}
