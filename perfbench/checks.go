package main

import (
	"fmt"
	"math"
)

// The output checks. Each takes the program's output and the value the
// benchmark computed on its own (or a property the method must have) and
// returns a non-nil error when the output is wrong. They are pure
// functions so that main_test.go can feed each one a wrong value.

// checkLabel: a packet's leaf must be the one the policy's filter rules
// give its app.
func checkLabel(got, want string) error {
	if got != want {
		return fmt.Errorf("label %q, want %q", got, want)
	}
	return nil
}

// checkRate: bytes forwarded over elapsedNs may not exceed rateBps over
// that time plus a burst allowance.
func checkRate(what string, bytes int64, rateBps float64, elapsedNs int64, burstBytes int64) error {
	limit := rateBps/8*float64(elapsedNs)/1e9 + float64(burstBytes)
	if float64(bytes) > limit {
		return fmt.Errorf("%s forwarded %d B in %.6f s, above %.0f B (%.3g bit/s × elapsed + %d B burst)",
			what, bytes, float64(elapsedNs)/1e9, limit, rateBps, burstBytes)
	}
	return nil
}

// checkEqual: a counter the program reports must equal the benchmark's
// own count of the same thing.
func checkEqual(what string, program, own int64) error {
	if program != own {
		return fmt.Errorf("%s: program reports %d, benchmark counted %d", what, program, own)
	}
	return nil
}

// checkAtMost: a size or occupancy must stay within its bound.
func checkAtMost(what string, v, bound int64) error {
	if v > bound {
		return fmt.Errorf("%s %d exceeds its bound %d", what, v, bound)
	}
	return nil
}

// checkEstimate: a count-min estimate may overestimate but never fall
// below the true (equally decayed) byte count.
func checkEstimate(flow uint32, estimate, exact uint64) error {
	if estimate < exact {
		return fmt.Errorf("flow %d: sketch estimate %d below exact %d", flow, estimate, exact)
	}
	return nil
}

// checkShares: every app's measured rate in a window must be within
// tolGbps of the policy's share, and the total within tolGbps of the
// ceiling.
func checkShares(window string, got, want []float64, total, ceilGbps, tolGbps float64) error {
	for a := range want {
		if math.Abs(got[a]-want[a]) > tolGbps {
			return fmt.Errorf("%s: app %d at %.3f Gbit/s, policy share %.3f ± %.2f", window, a, got[a], want[a], tolGbps)
		}
	}
	if total > ceilGbps+tolGbps {
		return fmt.Errorf("%s: total %.3f Gbit/s above the %.1f ceiling + %.2f", window, total, ceilGbps, tolGbps)
	}
	return nil
}

// checkShed: in a sweep cell, the congestion-fed policy must shed
// strictly less on the slow path than the congestion-blind one.
func checkShed(cell string, fed, blind float64) error {
	if !(fed < blind) {
		return fmt.Errorf("%s: fed shed rate %.4f not below blind %.4f", cell, fed, blind)
	}
	return nil
}

// checkList collects the failed checks of a run.
type checkList struct {
	errs []error
}

func (c *checkList) add(err error) bool {
	if err != nil {
		c.errs = append(c.errs, err)
		return false
	}
	return true
}

func (c *checkList) ok() bool { return len(c.errs) == 0 }
