package packet

import (
	"testing"
	"testing/quick"

	"flowvalve/internal/fvassert"
)

func TestAllocAssignsUniqueIDs(t *testing.T) {
	var a Alloc
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		p := a.New(1, 2, 64, int64(i))
		if seen[p.ID] {
			t.Fatalf("duplicate packet ID %d", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestAllocStampsFields(t *testing.T) {
	var a Alloc
	p := a.New(7, 3, 1500, 42)
	if p.Flow != 7 || p.App != 3 || p.Size != 1500 || p.SentAt != 42 {
		t.Fatalf("fields wrong: %+v", p)
	}
	if p.EgressAt != 0 {
		t.Fatal("EgressAt should start zero")
	}
}

func TestWireBytesSingleFrame(t *testing.T) {
	cases := map[int]int{
		64:   64 + WireOverhead,
		1518: 1518 + WireOverhead,
		1:    1 + WireOverhead,
	}
	for size, want := range cases {
		p := Packet{Size: size}
		if got := p.WireBytes(); got != want {
			t.Errorf("WireBytes(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestWireBytesTSOSegments(t *testing.T) {
	// A 16KB TSO segment spans ceil(16384/1518) = 11 wire frames.
	p := Packet{Size: 16384}
	want := 16384 + 11*WireOverhead
	if got := p.WireBytes(); got != want {
		t.Fatalf("WireBytes(16KB) = %d, want %d", got, want)
	}
}

// Property: wire bytes always exceed the frame size, and per-byte
// overhead never exceeds one frame of overhead per MaxFrame bytes plus
// one extra frame.
func TestWireBytesProperty(t *testing.T) {
	check := func(sz uint16) bool {
		size := int(sz) + 1
		p := Packet{Size: size}
		wb := p.WireBytes()
		if wb <= size {
			return false
		}
		frames := (size + MaxFrame - 1) / MaxFrame
		return wb == size+frames*WireOverhead
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// A freed packet comes back from New with a fresh ID and every field
// reset; in untagged builds it is the same memory, and the New/Free
// cycle allocates nothing.
func TestAllocRecyclesFreedPackets(t *testing.T) {
	var a Alloc
	p := a.New(7, 3, 1500, 42)
	p.Seq, p.EgressAt, p.Marked = 9, 100, true
	id := p.ID
	a.Free(p)
	q := a.New(1, 2, 64, 50)
	if q.ID == id {
		t.Fatalf("recycled packet kept ID %d", id)
	}
	if q.Flow != 1 || q.App != 2 || q.Size != 64 || q.SentAt != 50 ||
		q.Seq != 0 || q.EgressAt != 0 || q.Marked || q.Tuple != TupleFor(2, 1) {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
	if fvassert.Enabled {
		return // freed packets sit in quarantine first
	}
	if q != p {
		t.Fatal("New did not reuse the freed packet")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a.Free(a.New(1, 2, 64, 0))
	})
	if allocs != 0 {
		t.Fatalf("New+Free allocated %.1f times per run, want 0", allocs)
	}
}
