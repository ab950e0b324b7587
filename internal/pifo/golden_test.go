package pifo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/sim"
)

// labelRun is everything observable from one label-plane overload run.
type labelRun struct {
	verdicts  []byte // 'F' or 'D' per request, in issue order
	forwarded uint64
	dropped   uint64
	fwdBytes  int64
	elapsedNs int64
}

// labelOverloadRun replays a seeded label trace into one Sched on a
// manual clock at 1.25× the 1 Gbit/s link. Apps are drawn with shares
// 0.4/0.3/0.2/0.1, the policies' slot weights, so a fair scheduler can
// keep the link full. Bursts of 1–32 requests alternate between
// ScheduleBatch and per-request Schedule calls; the clock advances by
// each burst's offered bytes at 1.25× the link rate.
func labelOverloadRun(tb testing.TB, backend, policy string, seed uint64, nReqs int) labelRun {
	tb.Helper()
	const slots = 4
	shares := [slots]float64{0.4, 0.3, 0.2, 0.1}
	tr := testTree(tb, slots)
	labels := testLabels(tb, tr, slots)
	clk := clock.NewManual(0)
	s := newTestSched(tb, backend, policy, clk, tr, slots)

	rng := sim.NewRNG(seed)
	reqs := make([]dataplane.Request, nReqs)
	for i := range reqs {
		u := rng.Float64()
		app := 0
		for acc := shares[0]; app < slots-1 && u >= acc; acc += shares[app] {
			app++
		}
		reqs[i] = dataplane.Request{Label: labels[app], Size: 64 + rng.Intn(1437)}
	}

	var res labelRun
	out := make([]dataplane.Decision, 32)
	var offered int64
	for lo, k := 0, 0; lo < nReqs; k++ {
		n := 1 + rng.Intn(32)
		if lo+n > nReqs {
			n = nReqs - lo
		}
		burst := reqs[lo : lo+n]
		clk.Set(int64(float64(offered*8) / 1.25)) // ns at 1.25 Gbit/s offered
		if k%2 == 0 {
			s.ScheduleBatch(burst, out[:n])
		} else {
			for i, r := range burst {
				out[i] = s.Schedule(r.Label, r.Size)
			}
		}
		for i, r := range burst {
			offered += int64(r.Size)
			if out[i].Verdict == dataplane.Forward {
				res.verdicts = append(res.verdicts, 'F')
				res.fwdBytes += int64(r.Size)
			} else {
				res.verdicts = append(res.verdicts, 'D')
			}
		}
		lo += n
	}
	res.elapsedNs = int64(float64(offered*8) / 1.25)
	res.forwarded, res.dropped = s.Stats()
	return res
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// goldenDigests pins both planes of every backend × policy. The Qdisc
// rows digest determinismRunPolicy's metric dump and delivery trace
// plus QueueStats; the Sched rows digest labelOverloadRun's verdict
// stream and Stats.
var goldenDigests = map[string]string{
	"qdisc/pifo/prio":       "bf8dabbe9646beab",
	"sched/pifo/prio":       "407e9d40ce1df8ad",
	"qdisc/pifo/wfq":        "27f81a2064bbccec",
	"sched/pifo/wfq":        "407e9d40ce1df8ad",
	"qdisc/pifo/deadline":   "53a8e8b9311bcc42",
	"sched/pifo/deadline":   "407e9d40ce1df8ad",
	"qdisc/sppifo/prio":     "9ba4be993fa27465",
	"sched/sppifo/prio":     "ee62be9aa9b442c9",
	"qdisc/sppifo/wfq":      "b4fcd3233fd1c39d",
	"sched/sppifo/wfq":      "2deef4ff88653e38",
	"qdisc/sppifo/deadline": "d1bfa22912b236ca",
	"sched/sppifo/deadline": "b102dac5e6d1f98a",
	"qdisc/aifo/prio":       "a2eb51efbb9ef076",
	"sched/aifo/prio":       "83b77814683c34b1",
	"qdisc/aifo/wfq":        "db71afa7b07c40f8",
	"sched/aifo/wfq":        "7e94339620bd2106",
	"qdisc/aifo/deadline":   "a6e85dd82e56838b",
	"sched/aifo/deadline":   "3a46f4affd0b34d8",
	"qdisc/rifo/prio":       "356835ba793f450b",
	"sched/rifo/prio":       "4eea216f6ce2d244",
	"qdisc/rifo/wfq":        "8536257bfacc57b8",
	"sched/rifo/wfq":        "b785623ae63cbad7",
	"qdisc/rifo/deadline":   "f2053f33078de823",
	"sched/rifo/deadline":   "b1d4ae749b0db904",
	"qdisc/eiffel/prio":     "9e33bc8bd981494a",
	"sched/eiffel/prio":     "407e9d40ce1df8ad",
	"qdisc/eiffel/wfq":      "5e668b27e4183bb9",
	"sched/eiffel/wfq":      "407e9d40ce1df8ad",
	"qdisc/eiffel/deadline": "ce2f811d6cbdd6cc",
	"sched/eiffel/deadline": "407e9d40ce1df8ad",
	"qdisc/fvrank/prio":     "4fd7ad026b28d737",
	"sched/fvrank/prio":     "407e9d40ce1df8ad",
	"qdisc/fvrank/wfq":      "b6a5f065830170ad",
	"sched/fvrank/wfq":      "4046a411468b3a84",
	"qdisc/fvrank/deadline": "43168f6868c38ea7",
	"sched/fvrank/deadline": "fb91b9b90d3b19fe",
}

// TestBackendGolden pins the observable behaviour of the whole family
// against digests recorded from a reference build, so a refactor of the
// admission code cannot shift a verdict, a drop reason, or a delivery
// instant unnoticed. TestSeededRunsBitIdentical only compares a rerun
// with itself; this compares with history.
func TestBackendGolden(t *testing.T) {
	var got []string
	for _, backend := range BackendNames() {
		for _, policy := range PolicyNames() {
			dump, qs := determinismRunPolicy(t, backend, policy, 1234)
			got = append(got, fmt.Sprintf("qdisc/%s/%s", backend, policy),
				digest(fmt.Sprintf("%s\n%+v", dump, qs)))
			r := labelOverloadRun(t, backend, policy, 77, 20000)
			got = append(got, fmt.Sprintf("sched/%s/%s", backend, policy),
				digest(fmt.Sprintf("%s\nfwd=%d drop=%d", r.verdicts, r.forwarded, r.dropped)))
		}
	}
	var table strings.Builder
	for i := 0; i < len(got); i += 2 {
		fmt.Fprintf(&table, "\t%q: %q,\n", got[i], got[i+1])
		if want := goldenDigests[got[i]]; want != got[i+1] {
			t.Errorf("%s: digest %s, golden %s", got[i], got[i+1], want)
		}
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", table.String())
	}
}
