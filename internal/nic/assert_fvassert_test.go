//go:build fvassert

package nic

import (
	"strings"
	"testing"

	"flowvalve/internal/packet"
)

// A packet used after its Free — here re-injected after the harness
// returned it to the allocator on delivery — fails loudly at Inject
// instead of re-entering the pipeline as whatever the allocator hands
// out next.
func TestInjectAfterFreePanics(t *testing.T) {
	r := newRig(t, Config{}, 40e9, false)
	var a packet.Alloc
	p := a.New(0, 0, 1500, 0)
	r.nic.Inject(p)
	r.eng.Run()
	if len(r.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(r.delivered))
	}
	a.Free(p)
	defer func() {
		rec := recover()
		msg, ok := rec.(string)
		if !ok || !strings.HasPrefix(msg, "fvassert: nic: Inject of freed packet") {
			t.Fatalf("panic = %v, want the fvassert use-after-Free message", rec)
		}
	}()
	r.nic.Inject(p)
}
