package pifo

import (
	"sync"
	"testing"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
)

// TestSchedConcurrentDecisions drives one Sched per backend from several
// goroutines at once, mixing Schedule and ScheduleBatch on the wall
// clock. Every decision issued must be counted exactly once: the
// verdicts the callers saw sum to Stats, and Stats sum to the requests.
// Under -race this also checks that the kernel, the rank policy and the
// virtual-queue drain are only touched under the Sched's lock.
func TestSchedConcurrentDecisions(t *testing.T) {
	const (
		workers = 4
		rounds  = 200
		burst   = 8
	)
	tr := testTree(t, 4)
	labels := testLabels(t, tr, 4)
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			s := newTestSched(t, backend, PolicyWFQ, clock.NewWall(), tr, 4)
			var fwd, drop [workers]uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					reqs := make([]dataplane.Request, burst)
					out := make([]dataplane.Decision, burst)
					count := func(d dataplane.Decision) {
						if d.Verdict == dataplane.Forward {
							fwd[w]++
						} else {
							drop[w]++
						}
					}
					for r := 0; r < rounds; r++ {
						for i := range reqs {
							reqs[i] = dataplane.Request{Label: labels[(w+i)%len(labels)], Size: 1500}
						}
						if r%2 == 0 {
							s.ScheduleBatch(reqs, out)
							for _, d := range out {
								count(d)
							}
							continue
						}
						for _, q := range reqs {
							count(s.Schedule(q.Label, q.Size))
						}
					}
				}(w)
			}
			wg.Wait()
			var seenFwd, seenDrop uint64
			for w := 0; w < workers; w++ {
				seenFwd += fwd[w]
				seenDrop += drop[w]
			}
			f, d := s.Stats()
			if f != seenFwd || d != seenDrop {
				t.Errorf("Stats forwarded=%d dropped=%d, callers saw %d/%d", f, d, seenFwd, seenDrop)
			}
			if issued := uint64(workers * rounds * burst); f+d != issued {
				t.Errorf("forwarded+dropped=%d, issued %d decisions", f+d, issued)
			}
		})
	}
}

// TestFVRankKeepsLinkFullUnderOverload is the regression test for rank
// runaway: wfq and deadline advance a slot's virtual clock only for
// admitted packets, so under sustained overload fvrank's ranks stay
// within its horizon of real time and the link stays full. When dropped
// packets advanced the clock too, the ranks ran past the 1 ms horizon
// and fvrank forwarded almost nothing.
func TestFVRankKeepsLinkFullUnderOverload(t *testing.T) {
	for _, policy := range []string{PolicyWFQ, PolicyDeadline} {
		r := labelOverloadRun(t, BackendTaildrop, policy, 77, 20000)
		util := float64(r.fwdBytes*8) / float64(r.elapsedNs) // the link is 1 bit/ns
		t.Logf("%s: forwarded %.3f of the link, %d/%d packets", policy, util, r.forwarded, r.forwarded+r.dropped)
		if util < 0.95 {
			t.Errorf("%s: fvrank forwarded %.3f of the link at 1.25x overload, want >= 0.95", policy, util)
		}
	}
}
