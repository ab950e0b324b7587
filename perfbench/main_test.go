package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"flowvalve/internal/fvconf"
)

// smokeSweep is one cell of the offload sweep at its full 20 ms, where
// the fed-sheds-less property holds.
var smokeSweep = reproduceConfig{tableCaps: []int{64}, churns: []float64{40_000}}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires every check to pass and every declared metric to be printed.
func TestSmoke(t *testing.T) {
	for name, w := range workloads {
		if name == "reproduce" {
			w = func(cfg runConfig) (*result, error) { return reproduce(cfg, smokeSweep) }
		}
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			res, err := w(runConfig{seed: 7, seconds: 0.3, trace: trace, outDir: t.TempDir(), log: &log})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := []string{"setup_s", "pkts_per_s", "burst_p50_us", "burst_p99_us", "run_s"}
			if trace {
				want = want[:0]
				for _, nu := range perLayerNames {
					want = append(want, nu[0])
				}
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not finite: %+v", name, trace, m, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
			if trace && res.Metrics["bench.trace_overhead"].Value <= 0 {
				t.Errorf("%s: trace overhead not measured", name)
			}
		}
	}
}

// TestResultLine checks the command's output contract: the last line is
// one JSON object with exactly the four keys, and bad flags fail.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "pifo-family", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("result keys: %v", obj)
	}
	var m map[string]metric
	if err := json.Unmarshal(obj["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 || m["peak_rss_mb"].Value <= 0 {
		t.Errorf("want the six end-to-end metrics, got %v", m)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hot-flows", "--trace", "2"},
		{"--workload", "hot-flows", "--seconds", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: every
// listed workload runs, and the end-to-end and per-layer metrics match
// with their units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	var res result
	if err := runAndDecode(t, []string{"--workload", "hot-flows", "--seconds", "0.2"}, &res); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(res.Metrics) != len(b.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json names %d", len(res.Metrics), len(b.EndToEnd))
	}
	var pl [][2]string
	for _, m := range b.PerLayer {
		pl = append(pl, [2]string{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(pl, perLayerNames) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", pl, perLayerNames)
	}
}

func runAndDecode(t *testing.T, args []string, res *result) error {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), res)
}

// TestCycleMeans pins the pifo-family aggregation: window i of the
// merged series is the mean over workers of their window i, and the
// reported figures are medians over the merged windows, so one slowed
// cycle does not move them.
func TestCycleMeans(t *testing.T) {
	a := &windowed{rates: []float64{10, 20, 30, 1}, p50s: []float64{1, 2, 3, 90}, p99s: []float64{2, 4, 6, 99}, bursts: 5}
	b := &windowed{rates: []float64{30, 40, 50}, p50s: []float64{3, 4, 5}, p99s: []float64{6, 8, 10}, bursts: 7}
	m := cycleMeans([]*windowed{a, b})
	if want := []float64{20, 30, 40}; !reflect.DeepEqual(m.rates, want) {
		t.Errorf("rates %v, want %v", m.rates, want)
	}
	if want := []float64{4, 6, 8}; !reflect.DeepEqual(m.p99s, want) {
		t.Errorf("p99s %v, want %v", m.p99s, want)
	}
	if m.bursts != 12 {
		t.Errorf("bursts %d, want 12", m.bursts)
	}
	if r := m.rate(); r != 30 {
		t.Errorf("rate %v, want the median cycle 30", r)
	}
	slow := &windowed{rates: []float64{30, 30, 1, 30, 30}, p50s: []float64{2, 2, 50, 2, 2}, p99s: []float64{3, 3, 80, 3, 3}}
	if p50, p99, _, _ := burstQuantiles([]*windowed{slow}); p50 != 2 || p99 != 3 || slow.rate() != 30 {
		t.Errorf("one slowed window moved the medians: p50 %v p99 %v rate %v", p50, p99, slow.rate())
	}
}

// TestPolicyShares pins the benchmark's own reading of the motivation
// policy against the shares the paper states.
func TestPolicyShares(t *testing.T) {
	pol, err := parseScript(fvconf.MotivationScript)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := pol.leafNames(4)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(leaves, " ") != "1:1 1:40 1:50 1:30" {
		t.Errorf("app leaves %v", leaves)
	}
	for i, w := range fig11aStages() {
		want := [][]float64{{10, 0, 0, 0}, {0, 14.0 / 3, 2, 10.0 / 3}, {0, 8, 2, 0}}[i]
		got := pol.expectedGbps(w.active)
		for a := range want {
			if math.Abs(got[a]-want[a]) > 1e-9 {
				t.Errorf("window %d: shares %v, want %v", i, got, want)
				break
			}
		}
	}
}

// The negative tests: each check must reject a deliberately wrong value
// and accept the right one, so that none of them is vacuous.

func TestCheckLabelRejectsSwappedLabel(t *testing.T) {
	if checkLabel("1:40", "1:40") != nil {
		t.Error("matching label rejected")
	}
	if checkLabel("1:50", "1:40") == nil || checkLabel("", "1:40") == nil {
		t.Error("swapped or missing label accepted")
	}
}

func TestCheckRateRejectsOverRate(t *testing.T) {
	// 10 Gbit/s for 1 s is 1.25e9 B; with a 5e6 B burst the limit is
	// 1.255e9 B.
	if checkRate("root", 1_255_000_000, 10e9, 1e9, 5_000_000) != nil {
		t.Error("byte count at the limit rejected")
	}
	if checkRate("root", 1_255_000_001, 10e9, 1e9, 5_000_000) == nil {
		t.Error("byte count above rate × elapsed + burst accepted")
	}
}

func TestCheckEqualRejectsMismatch(t *testing.T) {
	if checkEqual("fwd", 42, 42) != nil {
		t.Error("equal counts rejected")
	}
	if checkEqual("fwd", 42, 41) == nil {
		t.Error("off-by-one count accepted")
	}
}

func TestCheckAtMostRejectsOverflow(t *testing.T) {
	if checkAtMost("cache size", 65536, 65536) != nil {
		t.Error("size at capacity rejected")
	}
	if checkAtMost("cache size", 65537, 65536) == nil {
		t.Error("size above capacity accepted")
	}
}

func TestCheckEstimateRejectsUnderestimate(t *testing.T) {
	if checkEstimate(1, 1000, 1000) != nil || checkEstimate(1, 1200, 1000) != nil {
		t.Error("estimate at or above truth rejected")
	}
	if checkEstimate(1, 999, 1000) == nil {
		t.Error("estimate below truth accepted")
	}
}

func TestCheckSharesRejectsWrongShare(t *testing.T) {
	want := []float64{0, 8, 2, 0}
	if checkShares("w", []float64{0, 7.87, 1.97, 0}, want, 9.84, 10, fig11aTolGbps) != nil {
		t.Error("measured Fig 11(a) window rejected")
	}
	if checkShares("w", []float64{0, 2, 8, 0}, want, 10, 10, fig11aTolGbps) == nil {
		t.Error("swapped KVS/ML shares accepted")
	}
	if checkShares("w", []float64{0, 8, 2, 0}, want, 10.3, 10, fig11aTolGbps) == nil {
		t.Error("total above the ceiling accepted")
	}
}

func TestCheckShedRejectsFedAboveBlind(t *testing.T) {
	if checkShed("cell", 0.3648, 0.3935) != nil {
		t.Error("fed below blind rejected")
	}
	if checkShed("cell", 0.7176, 0.7164) == nil || checkShed("cell", 0.5, 0.5) == nil {
		t.Error("fed at or above blind accepted")
	}
}

// TestFailedCheckFailsRun: a run-level check failure counts every
// operation it covers as failed and marks the result incorrect.
func TestFailedCheckFailsRun(t *testing.T) {
	var checks checkList
	checks.add(checkEqual("fwd", 1, 2))
	res := report(&bytes.Buffer{}, &checks, 64, 0, map[string]metric{})
	if res.Correct || res.Failed != 64 {
		t.Errorf("correct=%v failed=%d, want false and 64", res.Correct, res.Failed)
	}
}
