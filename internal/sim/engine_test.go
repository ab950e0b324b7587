package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time order = %v, want ascending", order)
		}
	}
}

func TestEventsMayScheduleEvents(t *testing.T) {
	e := New()
	var count int
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("final time = %d, want 50", e.Now())
	}
}

// The typed heap must fire events in (time, schedule order) — the order
// a stable sort by time of every scheduled event gives — under seeded
// random arrivals with heavy timestamp collisions and callbacks that
// schedule more events (including at the current instant) while the
// heap drains.
func TestHeapOrderMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		type rec struct {
			at int64
			id int
		}
		var scheduled []rec
		var fired []int
		var schedule func(at int64)
		schedule = func(at int64) {
			id := len(scheduled)
			scheduled = append(scheduled, rec{at: at, id: id})
			e.At(at, func() {
				fired = append(fired, id)
				if len(scheduled) < 6000 {
					for k := rng.Intn(3); k > 0; k-- {
						schedule(e.Now() + int64(rng.Intn(4)))
					}
				}
			})
		}
		for i := 0; i < 2000; i++ {
			schedule(int64(rng.Intn(64)))
		}
		e.RunUntil(20)
		for i := 0; i < 200; i++ {
			schedule(e.Now() + int64(rng.Intn(8)))
		}
		e.Run()

		sort.SliceStable(scheduled, func(a, b int) bool { return scheduled[a].at < scheduled[b].at })
		if len(fired) != len(scheduled) {
			t.Fatalf("seed %d: fired %d of %d scheduled events", seed, len(fired), len(scheduled))
		}
		for i, r := range scheduled {
			if fired[i] != r.id {
				t.Fatalf("seed %d: event %d fired %d, want %d (t=%d)", seed, i, fired[i], r.id, r.at)
			}
		}
		for i, ev := range e.events[:cap(e.events)] {
			if ev.h != nil {
				t.Fatalf("seed %d: drained heap still holds a callback in slot %d", seed, i)
			}
		}
	}
}

// counter is a pointer Handler: the typed-event shape the NIC, the
// generators and the TCP model use on their per-packet paths.
type counter struct {
	fired int
	sum   uint64
}

func (c *counter) Fire(arg uint64) {
	c.fired++
	c.sum += arg
}

// Scheduling and firing an event allocates nothing once the heap has
// grown, whether it is a closure (At/After) or a pointer Handler
// (Schedule): the event moves by value, and both shapes sit in the
// record's interface word without boxing.
func TestAtStepAllocateNothing(t *testing.T) {
	e := New()
	fn := func() {}
	h := &counter{}
	for i := 0; i < 64; i++ {
		e.After(int64(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(5, fn)
		e.At(e.Now()+3, fn)
		e.Schedule(e.Now()+4, h, 7)
		e.Step()
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Schedule+Step allocated %.1f times per run, want 0", allocs)
	}
	if h.fired != 1001 || h.sum != 7*1001 {
		t.Fatalf("handler fired %d times (arg sum %d), want 1001 (%d)", h.fired, h.sum, 7*1001)
	}
}

// Typed events and closures share one (time, scheduling order) sequence.
func TestScheduleInterleavesWithClosures(t *testing.T) {
	e := New()
	var order []uint64
	h := handlerFunc(func(arg uint64) { order = append(order, arg) })
	e.Schedule(10, h, 1)
	e.At(10, func() { order = append(order, 2) })
	e.Schedule(5, h, 0)
	e.Schedule(10, h, 3)
	e.Run()
	want := []uint64{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

type handlerFunc func(uint64)

func (f handlerFunc) Fire(arg uint64) { f(arg) }

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := New()
	var fired []int64
	e.At(10, func() { fired = append(fired, 10) })
	e.At(20, func() { fired = append(fired, 20) })
	e.At(30, func() { fired = append(fired, 30) })
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 10 and 20", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := New()
	e.RunUntil(12345)
	if e.Now() != 12345 {
		t.Fatalf("Now() = %d, want 12345", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := int64(0); i < 7; i++ {
		e.At(i, func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG is stuck at zero")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpPositiveMean(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp(100)
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
	}
	mean := sum / n
	if mean < 90 || mean > 110 {
		t.Fatalf("exponential mean = %.1f, want ≈100", mean)
	}
}

// BenchmarkEngine measures raw event throughput — the budget every
// simulated packet spends on scheduling/firing its events.
func BenchmarkEngine(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(int64(i%1000), func() {})
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
	e.Run()
}

// BenchmarkEngineChain measures a self-rescheduling event chain (the
// drain-loop pattern used by every wire model).
func BenchmarkEngineChain(b *testing.B) {
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	b.ResetTimer()
	e.Run()
}
