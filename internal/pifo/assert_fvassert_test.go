//go:build fvassert

package pifo

import (
	"strings"
	"testing"
)

// TestRangeWindowAssertionFiresOnCorruption proves RIFO's incremental
// window is checked against a full scan under the tag: a suffix minimum
// corrupted below every windowed rank must make the next bounds call
// panic rather than hand RIFO a wrong normalization range.
func TestRangeWindowAssertionFiresOnCorruption(t *testing.T) {
	w := newRangeWindow(8)
	for i := range 11 {
		w.observeRange(Rank(100 + i)) // one wrap, then three more ranks
	}
	// The window is ring[3:] from the first lap plus ring[:3] since the
	// wrap, so bounds reads sufLo[3]. No observe sequence can put a rank
	// there that the ring does not hold.
	w.sufLo[w.next] = 0

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bounds on a corrupted window did not panic under -tags fvassert")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "fvassert: pifo:") {
			t.Fatalf("panic = %v, want fvassert: pifo:-prefixed message", r)
		}
	}()
	w.bounds()
}
