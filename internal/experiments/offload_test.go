package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"flowvalve/internal/faults"
	"flowvalve/internal/fvassert"
	"flowvalve/internal/nic"
)

// offloadTestScenario is a scaled-down lab (10ms of sources) so the full
// five-row sweep stays test-suite fast.
func offloadTestScenario() OffloadScenario {
	return OffloadScenario{DurationNs: 10e6}
}

// TestOffloadDeterminismAndShape reruns the identical seeded lab and
// requires bit-identical trace digests and control-plane stats per row —
// plus the structural properties each row must have: the oracle anchors
// at offload fraction 1 with zero enforcement error, every policy row
// observes real slow-path traffic and stays within the rule-table bound.
func TestOffloadDeterminismAndShape(t *testing.T) {
	a, err := RunOffload(offloadTestScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOffload(offloadTestScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) || len(a.Rows) < 2 {
		t.Fatalf("row counts: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.TraceDigest != rb.TraceDigest {
			t.Errorf("row %s: trace digest diverged across identical runs (%#x vs %#x)",
				ra.Name, ra.TraceDigest, rb.TraceDigest)
		}
		if ra.Offload != rb.Offload {
			t.Errorf("row %s: offload stats diverged:\n a=%+v\n b=%+v", ra.Name, ra.Offload, rb.Offload)
		}
	}

	oracle := a.Rows[0]
	if oracle.Name != "oracle" || oracle.Offload.Enabled {
		t.Fatalf("row 0 must be the no-offload oracle, got %+v", oracle)
	}
	if oracle.OffloadFraction != 1 || oracle.EnforcementErr != 0 {
		t.Fatalf("oracle anchor broken: fraction=%v err=%v", oracle.OffloadFraction, oracle.EnforcementErr)
	}
	if oracle.Delivered == 0 {
		t.Fatal("oracle delivered nothing")
	}
	for _, row := range a.Rows[1:] {
		if !row.Offload.Enabled {
			t.Errorf("row %s: offload layer not attached", row.Name)
			continue
		}
		if row.OffloadFraction >= 1 || row.OffloadFraction <= 0 {
			t.Errorf("row %s: offload fraction %v, want in (0, 1) under churn", row.Name, row.OffloadFraction)
		}
		if row.Offload.SlowPkts == 0 || row.Offload.Installs == 0 {
			t.Errorf("row %s: control plane idle: %+v", row.Name, row.Offload)
		}
		if row.Offload.Offloaded > row.Offload.TableCap {
			t.Errorf("row %s: %d offloaded flows exceed table capacity %d",
				row.Name, row.Offload.Offloaded, row.Offload.TableCap)
		}
		if row.Delivered == 0 {
			t.Errorf("row %s: delivered nothing", row.Name)
		}
	}

	// The report renderer covers every row.
	out := FormatOffload(a)
	for _, row := range a.Rows {
		if !strings.Contains(out, row.Name) {
			t.Errorf("FormatOffload omits row %q", row.Name)
		}
	}
}

// TestChaosOffloadChurn is the offload-churn soak: randomized fault
// plans (fixed seed matrix) run against every policy row while the churn
// load hammers the install queue, with each seed driving a different
// slow-path qdisc so both host schedulers soak under faults. Graceful
// degradation here means the run completes, faults really were injected,
// rule-table and queue bounds hold, and packets still flow.
func TestChaosOffloadChurn(t *testing.T) {
	const (
		faultFrom = int64(2e6)
		faultTo   = int64(8e6)
	)
	qdiscs := []string{nic.SlowQdiscHTB, nic.SlowQdiscPrio}
	for i, seed := range []uint64{1, 2} {
		qd := qdiscs[i%len(qdiscs)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, qd), func(t *testing.T) {
			sc := offloadTestScenario()
			sc.SlowPath.Qdisc = qd
			sc.Faults = faults.RandomPlan(seed, faultFrom, faultTo)
			res, err := RunOffload(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				if row.Faults == 0 {
					t.Errorf("row %s: randomized plan injected no faults", row.Name)
				}
				if row.Delivered == 0 {
					t.Errorf("row %s: nothing delivered through the faulted run", row.Name)
				}
				if !row.Offload.Enabled {
					continue
				}
				if row.Offload.SlowQdisc != qd {
					t.Errorf("row %s: slow path ran %q, configured %q", row.Name, row.Offload.SlowQdisc, qd)
				}
				if row.Offload.Offloaded > row.Offload.TableCap {
					t.Errorf("row %s: table bound broken under faults: %d > %d",
						row.Name, row.Offload.Offloaded, row.Offload.TableCap)
				}
				if row.Offload.QueueDepth > row.Offload.QueueCap {
					t.Errorf("row %s: install queue over capacity: %d > %d",
						row.Name, row.Offload.QueueDepth, row.Offload.QueueCap)
				}
			}
		})
	}
}

// TestOffloadSweepFedReducesShed is the PR's headline acceptance: on the
// overloaded churn sweep the congestion-fed adaptive policy strictly
// sheds less on the slow path than the congestion-blind policy of the
// previous revision at every (capacity, churn) point — the slow-path
// signals must actually close the loop, not just ride along in
// PolicyInput. The runs are seeded and deterministic, so a strict
// inequality cannot flake.
func TestOffloadSweepFedReducesShed(t *testing.T) {
	res, err := RunOffloadSweep(OffloadScenario{DurationNs: 10e6},
		[]int{64, 128}, []float64{40_000, 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Oracles) != 2 || len(res.Points) != 4 {
		t.Fatalf("sweep shape: %d oracles, %d points", len(res.Oracles), len(res.Points))
	}
	for _, o := range res.Oracles {
		if o.Offload.Enabled || o.Delivered == 0 {
			t.Fatalf("oracle anchor broken: %+v", o.Offload)
		}
	}
	for _, pt := range res.Points {
		if pt.Blind.Offload.SlowPkts == 0 || pt.Fed.Offload.SlowPkts == 0 {
			t.Errorf("cap=%d churn=%.0f: no slow-path traffic observed", pt.TableCap, pt.ChurnFlowsPerSec)
			continue
		}
		if pt.Fed.ShedRate >= pt.Blind.ShedRate {
			t.Errorf("cap=%d churn=%.0f: fed shed rate %.4f not strictly below blind %.4f",
				pt.TableCap, pt.ChurnFlowsPerSec, pt.Fed.ShedRate, pt.Blind.ShedRate)
		}
		if pt.Fed.EnforcementErr < 0 || pt.Blind.EnforcementErr < 0 {
			t.Errorf("cap=%d churn=%.0f: negative enforcement error", pt.TableCap, pt.ChurnFlowsPerSec)
		}
	}
	out := FormatOffloadSweep(res)
	for _, want := range []string{"blind.err", "fed.err", "shed%"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatOffloadSweep missing %q:\n%s", want, out)
		}
	}
}

// The DES packet path allocates nothing per packet: events are typed
// records and packets are recycled through the row's Alloc, so a 2 ms
// cell of the offload sweep — elephants, TCP, mice churn, the slow-path
// detour — costs only its setup, its packet working set (allocated in
// slabs) and the flow-cache entries of new flows. Before typed events
// and recycling it made several allocations per packet.
func TestOffloadRowAllocsPerPacket(t *testing.T) {
	if fvassert.Enabled {
		t.Skip("fvassert quarantines freed packets, which allocates by design")
	}
	sc := OffloadScenario{DurationNs: 2e6, ChurnFlowsPerSec: 40_000, TableCap: 64}
	sc.sweepDefaults()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	row, err := runOffloadRow(&sc, "adaptive-fed", fedAdaptive())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pkts := row.Delivered + row.Dropped
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(pkts)
	t.Logf("%d allocations over %d packets: %.4f per packet", after.Mallocs-before.Mallocs, pkts, perPkt)
	if perPkt > 0.05 {
		t.Fatalf("runOffloadRow made %.4f allocations per simulated packet, want <= 0.05", perPkt)
	}
}
