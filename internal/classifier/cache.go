package classifier

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"flowvalve/internal/fvassert"
	"flowvalve/internal/headers"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
)

// This file implements the Exact Match Flow Cache as a sharded,
// concurrent, capacity-bounded open-addressed table — the software
// analogue of the NP's dedicated lookup engines (the 10× classification
// speedup the paper credits, §III-B). NIC worker cores classify in
// parallel: the hit path is lock-free (one hash, a bounded linear probe
// over atomic entry pointers, one reference-bit store, one add to a
// striped hit count), while the miss path — parser plus p4lite table
// walk plus insertion — serializes per shard, never globally. Capacity is fixed at construction; a full probe
// window evicts with CLOCK (second-chance), so a million-flow working
// set churns through the cache instead of growing it without bound.

// CacheConfig sizes the exact-match flow cache. The zero value takes the
// defaults (65536 entries across 8 shards).
type CacheConfig struct {
	// Size is the total entry capacity across all shards. It is rounded
	// up so each shard's table is a power of two of at least one probe
	// window; Capacity in CacheStats reports the effective value.
	Size int
	// Shards is the number of independent shards (rounded up to a power
	// of two). More shards admit more concurrent miss-path walks; the
	// hit path takes no shard lock and writes no shard state, so the
	// shard count does not affect hit-path contention.
	Shards int
}

const (
	defaultCacheSize   = 1 << 16
	defaultCacheShards = 8
	// cacheProbeWindow bounds the linear probe of a lookup and doubles
	// as the CLOCK eviction window of an insert: a key lives within
	// cacheProbeWindow slots of its home position or not at all.
	cacheProbeWindow = 16
	// cacheLine is the false-sharing unit the hit-count lanes pad to.
	cacheLine = 64
	// hitLanes is the hit count's stripe fan-out. A goroutine's lane
	// comes from hashing a stack address, so two concurrent workers
	// share a lane with probability ≈ 1/hitLanes.
	hitLaneBits = 6
	hitLanes    = 1 << hitLaneBits
)

func (c CacheConfig) defaults() CacheConfig {
	if c.Size <= 0 {
		c.Size = defaultCacheSize
	}
	if c.Shards <= 0 {
		c.Shards = defaultCacheShards
	}
	c.Shards = int(nextPow2(uint64(c.Shards)))
	return c
}

// nextPow2 rounds n up to a power of two (min 1).
func nextPow2(n uint64) uint64 {
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// CacheStats is a consistent snapshot of the flow-cache counters. Hits,
// Misses, Evictions, ParseErrors, and Invalidations are cumulative since
// creation (or the last Flush — Flush resets all of them together, never
// a subset); Size, Negative, and Capacity describe the current table.
type CacheStats struct {
	// Hits and Misses count lookup outcomes.
	Hits, Misses uint64
	// Evictions counts entries displaced by CLOCK to make room.
	Evictions uint64
	// ParseErrors counts frames the parser rejected on the miss path.
	ParseErrors uint64
	// Invalidations counts entries removed by Invalidate.
	Invalidations uint64
	// Size is the number of live entries; Negative is how many of them
	// are cached nil-label (matched-nothing) results.
	Size, Negative int
	// Capacity is the effective entry bound; Shards the shard count.
	Capacity, Shards int
}

// cacheEntry is one immutable cache record behind an atomic pointer; the
// only mutable field is the CLOCK reference bit. A nil lbl is a cached
// negative result (the NP caches the drop/default action the same way as
// a positive match).
type cacheEntry struct {
	key uint64
	lbl *tree.Label
	ref atomic.Uint32
}

// tombstone marks an invalidated slot. Probes skip it without
// terminating the chain (emptying a slot mid-chain would orphan every
// key that probed past it); inserts reuse it.
var tombstone = &cacheEntry{}

// cacheShard is one lock-striped slice of the table. The hit path only
// reads slots (hits are counted in the cache-wide hitCount); everything
// else happens under mu.
type cacheShard struct {
	misses atomic.Uint64
	evict  atomic.Uint64
	inval  atomic.Uint64
	used   atomic.Int64
	neg    atomic.Int64

	mu    sync.Mutex
	slots []atomic.Pointer[cacheEntry]
	hand  uint32
	// scratch is the miss path's header-synthesis buffer; per shard so
	// concurrent misses in different shards never share it.
	scratch [headers.MaxStackLen]byte
}

// hitLane is one stripe of the hit count, padded to a full cache line so
// no two lanes share one.
type hitLane struct {
	n atomic.Uint64
	_ [cacheLine - 8]byte
}

// hitCount is a striped hit counter. A single counter — even one per
// shard — is written by every core that hits, so its cache line
// migrates between cores on almost every hit and parallel workers
// together do less than one alone. Each goroutine instead adds to the
// lane its stack address hashes to, which stays on that core's cache;
// the sum over lanes is exact.
type hitCount struct {
	lanes [hitLanes]hitLane
}

// add counts one hit on the calling goroutine's lane. The lane is only a
// hint — any lane is correct, a shared one merely contends. Stacks are
// allocated at fixed size-class strides, so the address's low bits are
// the same in every goroutine at the same call depth; the Fibonacci
// multiply folds every bit into the top bits that pick the lane.
//
//fv:hotpath
func (hc *hitCount) add() {
	var b byte
	a := uint64(uintptr(unsafe.Pointer(&b)))
	hc.lanes[a*0x9e3779b97f4a7c15>>(64-hitLaneBits)].n.Add(1)
}

func (hc *hitCount) load() uint64 {
	var n uint64
	for i := range hc.lanes {
		n += hc.lanes[i].n.Load()
	}
	return n
}

func (hc *hitCount) reset() {
	for i := range hc.lanes {
		hc.lanes[i].n.Store(0)
	}
}

// flowCache is the sharded table.
type flowCache struct {
	// Read by every lookup, written only at construction.
	shards    []cacheShard
	shardMask uint64
	slotMask  uint64 // per-shard slot count − 1
	capacity  int
	// The pad keeps the first hit lane off the line holding the
	// read-only fields above, so hit-count writes never invalidate it.
	_    [cacheLine]byte
	hits hitCount
}

func newFlowCache(cfg CacheConfig) *flowCache {
	cfg = cfg.defaults()
	perShard := nextPow2(uint64((cfg.Size + cfg.Shards - 1) / cfg.Shards))
	if perShard < cacheProbeWindow {
		perShard = cacheProbeWindow
	}
	if fvassert.Enabled &&
		(cfg.Shards <= 0 || cfg.Shards&(cfg.Shards-1) != 0 || perShard&(perShard-1) != 0) {
		fvassert.Failf("classifier: cache geometry must be power-of-two (shards %d, slots/shard %d): masking would alias",
			cfg.Shards, perShard)
	}
	fc := &flowCache{
		shards:    make([]cacheShard, cfg.Shards),
		shardMask: uint64(cfg.Shards) - 1,
		slotMask:  perShard - 1,
		capacity:  cfg.Shards * int(perShard),
	}
	for i := range fc.shards {
		fc.shards[i].slots = make([]atomic.Pointer[cacheEntry], perShard)
	}
	return fc
}

// packKey packs (app, flow) into a nonzero 64-bit key. Bit 48 marks the
// key as present so app=0/flow=0 never collides with an empty slot.
func packKey(app packet.AppID, flow packet.FlowID) uint64 {
	return 1<<48 | uint64(app)<<32 | uint64(flow)
}

// mix64 is the 64-bit finalizer of MurmurHash3: every output bit depends
// on every input bit, so shard selection (low bits) and home slot (high
// bits) are independent.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (fc *flowCache) shardFor(h uint64) *cacheShard {
	return &fc.shards[h&fc.shardMask]
}

// get is the lock-free hit path: probe at most cacheProbeWindow slots
// from the key's home position, stopping early at the first empty slot
// (tombstones keep the chain walkable and are skipped). A hit refreshes
// the entry's CLOCK bit. Returns the shard either way so the caller's
// miss path can lock it without rehashing.
//
//fv:hotpath
func (fc *flowCache) get(key uint64) (sh *cacheShard, lbl *tree.Label, ok bool) {
	h := mix64(key)
	sh = fc.shardFor(h)
	home := h >> 32
	for i := uint64(0); i < cacheProbeWindow; i++ {
		e := sh.slots[(home+i)&fc.slotMask].Load()
		if e == nil {
			break
		}
		if e.key == key {
			if e.ref.Load() == 0 {
				e.ref.Store(1)
			}
			fc.hits.add()
			return sh, e.lbl, true
		}
	}
	sh.misses.Add(1)
	return sh, nil, false
}

// probeLocked re-checks for key under the shard lock (a concurrent miss
// for the same flow may have inserted while this caller classified).
func (fc *flowCache) probeLocked(sh *cacheShard, key uint64) (*cacheEntry, bool) {
	home := mix64(key) >> 32
	for i := uint64(0); i < cacheProbeWindow; i++ {
		e := sh.slots[(home+i)&fc.slotMask].Load()
		if e == nil {
			return nil, false
		}
		if e.key == key {
			return e, true
		}
	}
	return nil, false
}

// insertLocked publishes a resolved label under the shard lock,
// reporting whether a live entry was evicted to make room. The new entry
// lands in the first free (empty or tombstoned) slot of the key's probe
// window; a full window evicts by CLOCK second-chance — one sweep
// clearing set reference bits, the victim being the first slot found
// clear, starting from the shard's persistent hand so repeated eviction
// rotates through the window.
func (fc *flowCache) insertLocked(sh *cacheShard, key uint64, lbl *tree.Label) (evicted bool) {
	home := mix64(key) >> 32
	var free *atomic.Pointer[cacheEntry]
	for i := uint64(0); i < cacheProbeWindow; i++ {
		s := &sh.slots[(home+i)&fc.slotMask]
		e := s.Load()
		if e == nil {
			if free == nil {
				free = s
			}
			break
		}
		if e == tombstone {
			if free == nil {
				free = s
			}
			continue
		}
		if e.key == key {
			// Refresh in place (rule update or lost classify race).
			fc.countLabelSwap(sh, e.lbl, lbl)
			s.Store(newEntry(key, lbl))
			return false
		}
	}
	if free != nil {
		free.Store(newEntry(key, lbl))
		sh.used.Add(1)
		if lbl == nil {
			sh.neg.Add(1)
		}
		return false
	}

	// CLOCK: the window is full of live entries. Two passes bound the
	// scan — after the first pass every reference bit this sweep saw is
	// clear, so the second pass must pick a victim.
	// (Concurrent hits can re-set bits behind the sweep; the two-pass
	// bound then falls back to the hand position itself.)
	victim := uint64(sh.hand) % cacheProbeWindow
	for i := uint64(0); i < 2*cacheProbeWindow; i++ {
		j := (uint64(sh.hand) + i) % cacheProbeWindow
		e := sh.slots[(home+j)&fc.slotMask].Load()
		if e.ref.Load() != 0 {
			e.ref.Store(0)
			continue
		}
		victim = j
		break
	}
	sh.hand = uint32((victim + 1) % cacheProbeWindow)
	s := &sh.slots[(home+victim)&fc.slotMask]
	fc.countLabelSwap(sh, s.Load().lbl, lbl)
	s.Store(newEntry(key, lbl))
	sh.evict.Add(1)
	return true
}

func newEntry(key uint64, lbl *tree.Label) *cacheEntry {
	e := &cacheEntry{key: key, lbl: lbl}
	e.ref.Store(1)
	return e
}

// countLabelSwap maintains the negative-entry count across an in-place
// replacement.
func (fc *flowCache) countLabelSwap(sh *cacheShard, old, new *tree.Label) {
	if old == nil {
		sh.neg.Add(-1)
	}
	if new == nil {
		sh.neg.Add(1)
	}
}

// invalidate removes one key, reporting whether it was present. The slot
// becomes a tombstone, never empty, so longer probe chains through it
// stay intact.
func (fc *flowCache) invalidate(key uint64) bool {
	h := mix64(key)
	sh := fc.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	home := h >> 32
	for i := uint64(0); i < cacheProbeWindow; i++ {
		s := &sh.slots[(home+i)&fc.slotMask]
		e := s.Load()
		if e == nil {
			return false
		}
		if e == tombstone {
			continue
		}
		if e.key == key {
			if e.lbl == nil {
				sh.neg.Add(-1)
			}
			s.Store(tombstone)
			sh.used.Add(-1)
			sh.inval.Add(1)
			return true
		}
	}
	return false
}

// flush empties every shard and resets every counter — all of them
// together, so post-flush statistics are internally consistent.
func (fc *flowCache) flush() {
	for i := range fc.shards {
		sh := &fc.shards[i]
		sh.mu.Lock()
		for j := range sh.slots {
			if sh.slots[j].Load() != nil {
				sh.slots[j].Store(nil)
			}
		}
		sh.hand = 0
		sh.misses.Store(0)
		sh.evict.Store(0)
		sh.inval.Store(0)
		sh.used.Store(0)
		sh.neg.Store(0)
		sh.mu.Unlock()
	}
	fc.hits.reset()
}

// stats aggregates the shard counters and the hit-count lanes.
func (fc *flowCache) stats() CacheStats {
	st := CacheStats{Capacity: fc.capacity, Shards: len(fc.shards), Hits: fc.hits.load()}
	for i := range fc.shards {
		sh := &fc.shards[i]
		st.Misses += sh.misses.Load()
		st.Evictions += sh.evict.Load()
		st.Invalidations += sh.inval.Load()
		st.Size += int(sh.used.Load())
		st.Negative += int(sh.neg.Load())
	}
	return st
}
