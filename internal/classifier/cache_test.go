package classifier

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
)

// makeLabels allocates a batch label scratch.
func makeLabels(n int) []*tree.Label { return make([]*tree.Label, n) }

// Churn far past capacity must never grow the cache beyond its bound —
// the million-flow working set the ROADMAP's north star implies.
func TestCacheCapacityBoundUnderChurn(t *testing.T) {
	tr := testTree(t)
	c, err := NewSized(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "",
		CacheConfig{Size: 1 << 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cap := c.CacheCap()
	if cap < 1<<10 {
		t.Fatalf("CacheCap = %d, want >= %d", cap, 1<<10)
	}
	const flows = 1 << 20 // 1M distinct flows through a 1k-entry cache
	for f := 0; f < flows; f++ {
		lbl, _ := c.Lookup(pkt(packet.AppID(f>>16), packet.FlowID(f&0xffff)))
		if lbl == nil || lbl.Leaf.Name != "a" {
			t.Fatalf("flow %d misclassified: %v", f, lbl)
		}
		if f%(1<<16) == 0 {
			if n := c.CacheLen(); n > cap {
				t.Fatalf("cache size %d exceeds capacity %d after %d flows", n, cap, f)
			}
		}
	}
	st := c.Stats()
	if st.Size > cap {
		t.Fatalf("final cache size %d exceeds capacity %d", st.Size, cap)
	}
	if st.Evictions == 0 {
		t.Fatal("1M-flow churn through a 1k cache evicted nothing")
	}
	if st.Hits+st.Misses != flows {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, flows)
	}
}

// The cache is deterministic: identical lookup sequences produce
// identical statistics — the property that keeps DES runs reproducible.
func TestCacheEvictionDeterminism(t *testing.T) {
	run := func() CacheStats {
		tr := testTree(t)
		c, err := NewSized(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "",
			CacheConfig{Size: 256, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 100_000; i++ {
			c.Lookup(pkt(packet.AppID(rng.Intn(4)), packet.FlowID(rng.Intn(4096))))
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Evictions == 0 {
		t.Fatal("run evicted nothing — the determinism check is vacuous")
	}
}

// ClassifyBurst must agree with per-packet Lookup on labels and
// hit/miss accounting, on both sides of the sort-algorithm threshold.
func TestClassifyBatchLookupEquivalence(t *testing.T) {
	for _, n := range []int{1, 3, batchSortThreshold, batchSortThreshold + 1, 4 * batchSortThreshold} {
		// Adversarial mix: all-distinct flows plus duplicate runs.
		rng := rand.New(rand.NewSource(int64(n)))
		ps := make([]*packet.Packet, n)
		for i := range ps {
			ps[i] = pkt(packet.AppID(rng.Intn(3)), packet.FlowID(rng.Intn(n)))
		}

		tr := testTree(t)
		rules := []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}
		cb, _ := New(tr, rules, "")
		batchLbls := makeLabels(n)
		hits := make([]bool, n)
		evs := make([]bool, n)
		cb.ClassifyBurst(ps, batchLbls, hits, evs, nil, nil)

		cl, _ := New(tr, rules, "")
		for i, p := range ps {
			lbl, hit := cl.Lookup(p)
			if lbl != batchLbls[i] {
				t.Fatalf("n=%d pkt %d: batch label %v != lookup label %v", n, i, batchLbls[i], lbl)
			}
			if hit != hits[i] {
				t.Fatalf("n=%d pkt %d: batch hit=%v, lookup hit=%v", n, i, hits[i], hit)
			}
		}
		bs, ls := cb.Stats(), cl.Stats()
		if bs.Hits != ls.Hits || bs.Misses != ls.Misses {
			t.Fatalf("n=%d: batch stats %d/%d != lookup stats %d/%d",
				n, bs.Hits, bs.Misses, ls.Hits, ls.Misses)
		}
	}
}

// Flush resets every statistic together; Invalidate keeps the negative
// count and size consistent (the satellite-3 consistency sweep).
func TestCacheStatsConsistency(t *testing.T) {
	tr := testTree(t)
	// No default class: unmatched packets cache negative entries.
	c, _ := New(tr, []Rule{{App: 1, Flow: AnyFlow, Class: "a"}}, "")
	c.Lookup(pkt(1, 1)) // positive
	c.Lookup(pkt(9, 9)) // negative (matches nothing)
	st := c.Stats()
	if st.Size != 2 || st.Negative != 1 {
		t.Fatalf("size=%d negative=%d, want 2/1", st.Size, st.Negative)
	}
	c.Invalidate(9, 9)
	st = c.Stats()
	if st.Size != 1 || st.Negative != 0 || st.Invalidations != 1 {
		t.Fatalf("after invalidating negative entry: %+v", st)
	}
	// Force a parse error: a tuple with a protocol the header builder
	// cannot synthesize.
	var alloc packet.Alloc
	bad := alloc.New(77, 1, 1500, 0)
	bad.Tuple.Proto = 0xfe
	c.Lookup(bad)
	if pe := c.Stats().ParseErrors; pe == 0 {
		t.Fatal("unsynthesizable tuple did not count a parse error")
	}
	c.Flush()
	st = c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 ||
		st.ParseErrors != 0 || st.Invalidations != 0 || st.Size != 0 || st.Negative != 0 {
		t.Fatalf("flush left counters inconsistent: %+v", st)
	}
}

// Torture: parallel lookups, batches, invalidations, and flushes with a
// flow population far past capacity. Run under -race this exercises the
// lock-free hit path against concurrent insert/evict/invalidate/flush.
func TestCacheConcurrentTorture(t *testing.T) {
	tr := testTree(t)
	c, err := NewSized(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "",
		CacheConfig{Size: 512, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 20_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			batch := make([]*packet.Packet, 64)
			lbls := makeLabels(64)
			hits := make([]bool, 64)
			evs := make([]bool, 64)
			for i := 0; i < perWorker; i++ {
				f := packet.FlowID(rng.Intn(8192))
				a := packet.AppID(rng.Intn(4))
				switch i % 8 {
				case 6:
					c.Invalidate(a, f)
				case 7:
					if i%512 == 511 {
						c.Flush()
					} else {
						for j := range batch {
							batch[j] = pkt(a, packet.FlowID(rng.Intn(8192)))
						}
						c.ClassifyBurst(batch, lbls, hits, evs, nil, nil)
					}
				default:
					lbl, _, _ := c.lookup(pkt(a, f))
					if lbl == nil || lbl.Leaf.Name != "a" {
						panic("misclassified under concurrency")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > c.CacheCap() || st.Size < 0 {
		t.Fatalf("post-torture size %d out of [0, %d]", st.Size, c.CacheCap())
	}
	if st.Negative != 0 {
		t.Fatalf("negative count %d, want 0 (every packet matches)", st.Negative)
	}
}

// The striped hit count stays exact under concurrency: with lookups
// (and batch followers) from several goroutines spread over its lanes,
// Hits+Misses equals the lookups made and Hits the lookups past the
// warm-up misses — a lane lost or counted twice breaks the sum — and
// Flush zeroes every lane.
func TestCacheHitCountExactUnderConcurrency(t *testing.T) {
	tr := testTree(t)
	c, _ := New(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "")
	const hot = 512
	for f := 0; f < hot; f++ {
		c.Lookup(pkt(0, packet.FlowID(f)))
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != hot {
		t.Fatalf("warm-up: hits=%d misses=%d, want 0/%d", st.Hits, st.Misses, hot)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 40_000
	const burst = 8 // one probe plus seven same-flow batch followers
	var wg sync.WaitGroup
	var missed atomic.Bool
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			p := pkt(0, 0)
			batch := make([]*packet.Packet, burst)
			for j := range batch {
				batch[j] = pkt(0, 0)
			}
			lbls, hits := makeLabels(burst), make([]bool, burst)
			for i := 0; i < perWorker; i += burst {
				f := packet.FlowID((i/burst*7 + w) % hot)
				if w%2 == 0 {
					for j := 0; j < burst; j++ {
						p.Flow = (f + packet.FlowID(j)) % hot
						if _, hit := c.Lookup(p); !hit {
							missed.Store(true)
						}
					}
					continue
				}
				for _, bp := range batch {
					bp.Flow = f
				}
				c.ClassifyBatch(batch, lbls, hits)
				for _, h := range hits {
					if !h {
						missed.Store(true)
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if missed.Load() {
		t.Fatal("a warmed flow missed: the working set no longer fits the cache")
	}
	lookups := uint64(hot + workers*perWorker)
	st := c.Stats()
	if st.Hits+st.Misses != lookups {
		t.Fatalf("hits+misses = %d+%d = %d, want %d lookups", st.Hits, st.Misses, st.Hits+st.Misses, lookups)
	}
	if st.Hits != lookups-hot {
		t.Fatalf("hits = %d, want %d (lookups minus %d warm-up misses)", st.Hits, lookups-hot, hot)
	}
	used := 0
	for i := range c.cache.hits.lanes {
		if c.cache.hits.lanes[i].n.Load() != 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("%d workers' hits all landed on %d lane(s): the exactness check never summed across lanes", workers, used)
	}
	c.Flush()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after Flush: hits=%d misses=%d, want 0/0", st.Hits, st.Misses)
	}
}

// The hit path must not allocate: it is the NIC worker's per-packet fast
// path (acceptance: 0 allocs/op).
func TestClassifyHitNoAllocs(t *testing.T) {
	tr := testTree(t)
	c, _ := New(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "")
	p := pkt(1, 1)
	c.Lookup(p) // warm the entry
	if avg := testing.AllocsPerRun(1000, func() {
		if _, hit := c.Lookup(p); !hit {
			t.Fatal("warm lookup missed")
		}
	}); avg != 0 {
		t.Fatalf("hit path allocates %.1f per op, want 0", avg)
	}
}

// The hit path is lock-free, so aggregate parallel throughput must not
// collapse against single-threaded throughput (a mutex on the hit path
// would make GOMAXPROCS workers slower in aggregate than one). The bar
// is deliberately conservative — ≥0.9× serial — so the guard catches a
// serializing regression without flaking on noisy CI runners. Serial and
// parallel rounds alternate in this process and the best round of each
// is compared, so a busy neighbour (another package's test binary on
// the other CPU) slows both sides alike instead of just the parallel
// one.
func TestClassifyHitParallelScales(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks under -short")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("needs ≥2 procs to measure scaling")
	}
	tr := testTree(t)
	c, _ := New(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "")
	const hot = 1024
	for f := 0; f < hot; f++ {
		c.Lookup(pkt(0, packet.FlowID(f)))
	}
	// Each round performs the same number of lookups; a parallel round
	// splits them across GOMAXPROCS workers.
	const lookups = 1 << 22
	work := func(from, step int) {
		p := pkt(0, 0)
		for i := from; i < lookups; i += step {
			p.Flow = packet.FlowID(i % hot)
			c.Lookup(p)
		}
	}
	rate := func(run func()) float64 {
		start := time.Now()
		run()
		return lookups / time.Since(start).Seconds()
	}
	const rounds = 4
	var serialOps, parOps float64
	for r := 0; r < rounds; r++ {
		serialOps = max(serialOps, rate(func() { work(0, 1) }))
		parOps = max(parOps, rate(func() {
			var wg sync.WaitGroup
			for w := 0; w < procs; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					work(w, procs)
				}(w)
			}
			wg.Wait()
		}))
	}
	if parOps < 0.9*serialOps {
		t.Fatalf("best parallel hit throughput %.0f ops/s collapsed below best serial %.0f ops/s over %d alternating rounds — hit path serializing?",
			parOps, serialOps, rounds)
	}
}

// BenchmarkClassifyHit measures the lock-free hit path; with RunParallel
// it should scale with GOMAXPROCS (the striped hit count keeps each
// worker's writes on its own cache line).
func BenchmarkClassifyHit(b *testing.B) {
	tr := testTree(b)
	c, err := New(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "")
	if err != nil {
		b.Fatal(err)
	}
	// Warm a working set of hot flows.
	const hot = 1024
	for f := 0; f < hot; f++ {
		c.Lookup(pkt(0, packet.FlowID(f)))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := pkt(0, 0)
		f := uint32(0)
		for pb.Next() {
			f++
			p.Flow = packet.FlowID(f % hot)
			if _, hit := c.Lookup(p); !hit {
				b.Fatal("benchmark working set missed")
			}
		}
	})
}

func BenchmarkClassifyMissEvict(b *testing.B) {
	tr := testTree(b)
	c, err := NewSized(tr, []Rule{{App: AnyApp, Flow: AnyFlow, Class: "a"}}, "",
		CacheConfig{Size: 1 << 10, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	p := pkt(0, 0)
	for i := 0; i < b.N; i++ {
		p.Flow = packet.FlowID(i) // always fresh: miss + (warm) evict
		c.Lookup(p)
	}
}

// ClassifyBurst with steering on must agree with steering off on labels
// and hit accounting while steering every classified packet to its label's
// shard (and unclassified packets to -1), on both sides of the
// sort-algorithm threshold.
func TestClassifyBatchSteerEquivalence(t *testing.T) {
	ownersFor := func(tr *tree.Tree) []int32 {
		owners := make([]int32, tr.Len())
		for _, c := range tr.Classes() {
			if !c.Leaf() {
				continue
			}
			switch c.Name {
			case "a":
				owners[c.ID] = 0
			case "b":
				owners[c.ID] = 1
			default:
				owners[c.ID] = 2
			}
		}
		return owners
	}
	for _, n := range []int{1, 3, batchSortThreshold, 4 * batchSortThreshold} {
		rng := rand.New(rand.NewSource(int64(n)))
		ps := make([]*packet.Packet, n)
		for i := range ps {
			// Apps 0/1 match rules; app 2 matches nothing (nil label).
			ps[i] = pkt(packet.AppID(rng.Intn(3)), packet.FlowID(rng.Intn(n)))
		}
		tr := testTree(t)
		rules := []Rule{{App: 0, Flow: AnyFlow, Class: "a"}, {App: 1, Flow: AnyFlow, Class: "b"}}

		cs, _ := New(tr, rules, "")
		sLbls, sHits, sEvs := makeLabels(n), make([]bool, n), make([]bool, n)
		shards := make([]int32, n)
		cs.ClassifyBurst(ps, sLbls, sHits, sEvs, ownersFor(tr), shards)

		cb, _ := New(tr, rules, "")
		bLbls, bHits, bEvs := makeLabels(n), make([]bool, n), make([]bool, n)
		cb.ClassifyBurst(ps, bLbls, bHits, bEvs, nil, nil)

		for i := range ps {
			if sLbls[i] != bLbls[i] || sHits[i] != bHits[i] || sEvs[i] != bEvs[i] {
				t.Fatalf("n=%d pkt %d: steer (%v,%v,%v) != batch (%v,%v,%v)",
					n, i, sLbls[i], sHits[i], sEvs[i], bLbls[i], bHits[i], bEvs[i])
			}
			want := int32(-1)
			if sLbls[i] != nil {
				want = ownersFor(tr)[sLbls[i].Leaf.ID]
			}
			if shards[i] != want {
				t.Fatalf("n=%d pkt %d: shard %d, want %d", n, i, shards[i], want)
			}
		}
		ss, bs := cs.Stats(), cb.Stats()
		if ss.Hits != bs.Hits || ss.Misses != bs.Misses {
			t.Fatalf("n=%d: steer stats %d/%d != batch stats %d/%d", n, ss.Hits, ss.Misses, bs.Hits, bs.Misses)
		}
	}
}

// Reused output buffers must come back fully defined: flow-group
// followers behind a group head must overwrite their eviction and shard
// slots, not skip them — the NIC reuses one set of buffers across
// bursts, and a stale evicted[i]=true from an earlier burst would charge
// a phantom eviction (a stale shards[i] would misroute the packet). The
// one kernel runs the same bursts with steering on and off through a
// small cache that evicts, over buffers soiled before every burst; both
// runs must agree on labels, hits and evictions, every shard slot must
// name its label's owner, and the reported evictions must sum to the
// cache's own eviction count.
func TestClassifyBatchEvFollowerClearsStaleEviction(t *testing.T) {
	tr := testTree(t)
	rules := []Rule{{App: 0, Flow: AnyFlow, Class: "a"}, {App: 1, Flow: AnyFlow, Class: "b"}}
	owners := make([]int32, tr.Len())
	for _, c := range tr.Classes() {
		if c.Name == "b" {
			owners[c.ID] = 1
		}
	}
	mk := func() *Classifier {
		c, err := NewSized(tr, rules, "", CacheConfig{Size: 64, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain, steered := mk(), mk()
	const n = 16
	pLbls, pHits, pEvs := makeLabels(n), make([]bool, n), make([]bool, n)
	sLbls, sHits, sEvs := makeLabels(n), make([]bool, n), make([]bool, n)
	shards := make([]int32, n)
	rng := rand.New(rand.NewSource(7))
	var reported uint64
	for burst := 0; burst < 400; burst++ {
		// Few flows per burst so followers are common; a wide flow
		// space so the 64-entry cache keeps evicting. App 2 matches
		// no rule (nil label, shard -1).
		ps := make([]*packet.Packet, n)
		for i := range ps {
			ps[i] = pkt(packet.AppID(rng.Intn(3)), packet.FlowID(rng.Intn(4)+4*(burst%64)))
		}
		for i := 0; i < n; i++ {
			pEvs[i], sEvs[i], shards[i] = true, true, 99
		}
		plain.ClassifyBurst(ps, pLbls, pHits, pEvs, nil, nil)
		steered.ClassifyBurst(ps, sLbls, sHits, sEvs, owners, shards)
		for i := 0; i < n; i++ {
			if pLbls[i] != sLbls[i] || pHits[i] != sHits[i] || pEvs[i] != sEvs[i] {
				t.Fatalf("burst %d pkt %d: steer off (%v,%v,%v) != steer on (%v,%v,%v)",
					burst, i, pLbls[i], pHits[i], pEvs[i], sLbls[i], sHits[i], sEvs[i])
			}
			want := int32(-1)
			if sLbls[i] != nil {
				want = owners[sLbls[i].Leaf.ID]
			}
			if shards[i] != want {
				t.Fatalf("burst %d pkt %d: stale shard %d, want %d", burst, i, shards[i], want)
			}
			if pHits[i] && pEvs[i] {
				t.Fatalf("burst %d pkt %d: a cache hit reported an eviction", burst, i)
			}
			if pEvs[i] {
				reported++
			}
		}
	}
	ps, ss := plain.Stats(), steered.Stats()
	if ps != ss {
		t.Fatalf("steer on/off stats diverged:\n%+v\n%+v", ps, ss)
	}
	if ps.Evictions == 0 {
		t.Fatal("no burst evicted — the stale-eviction check is vacuous")
	}
	if reported != ps.Evictions {
		t.Fatalf("bursts reported %d evictions, cache counted %d: stale flags survived buffer reuse", reported, ps.Evictions)
	}
}
