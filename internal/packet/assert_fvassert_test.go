//go:build fvassert

package packet

import (
	"strings"
	"testing"
)

// Free poisons a packet under the tag, and freeing it again panics.
func TestDoubleFreePanics(t *testing.T) {
	var a Alloc
	p := a.New(1, 2, 64, 0)
	a.Free(p)
	if !Poisoned(p) {
		t.Fatal("freed packet is not poisoned under -tags fvassert")
	}
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "fvassert: packet: double Free") {
			t.Fatalf("panic = %v, want an fvassert double-Free message", r)
		}
	}()
	a.Free(p)
}

// A freed packet stays poisoned in quarantine for quarantineLen further
// frees, and is only then handed out again.
func TestFreedPacketQuarantined(t *testing.T) {
	var a Alloc
	first := a.New(1, 2, 64, 0)
	a.Free(first)
	for i := 0; i < quarantineLen-1; i++ {
		a.Free(a.New(1, 2, 64, 0))
	}
	if !Poisoned(first) {
		t.Fatal("packet left quarantine early")
	}
	a.Free(a.New(1, 2, 64, 0)) // pushes first out to the free list
	if p := a.New(3, 4, 128, 0); p != first || Poisoned(p) || p.Size != 128 {
		t.Fatalf("quarantine did not recycle the oldest packet: got %p %+v, want %p", p, p, first)
	}
}
