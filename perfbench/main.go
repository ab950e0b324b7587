// Command perfbench is FlowValve's end-to-end benchmark. One invocation
// runs one named workload for a fixed wall time, checks the program's
// outputs against properties computed apart from the program, and prints
// one JSON result object as the last line of standard output:
//
//	perfbench --workload hot-flows --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the result carries every end-to-end metric; with
// --trace 1 a separate traced run records spans around each call into a
// layer and prints every per-layer metric instead. See README.md for the
// workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart approximates the process start: package-level initializers
// of the main package run before main, after the runtime and every
// imported package are initialised. setup_s is measured from here.
var procStart = time.Now()

// metric is one named value in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	log     io.Writer
}

// workload runs one workload to completion and returns its result.
type workload func(cfg runConfig) (*result, error)

var workloads = map[string]workload{
	"hot-flows":   runHotFlows,
	"flow-churn":  runFlowChurn,
	"pifo-family": runPifoFamily,
	"reproduce":   runReproduce,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadList())
	seed := fs.Uint64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Float64("seconds", 8, "measured wall time of the run")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := fs.String("out", ".perfbench", "directory for span dumps and CPU profiles (traced runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, workloadList())
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	res, err := w(runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		outDir:  *outDir,
		log:     stdout,
	})
	if err != nil {
		return err
	}
	if *trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " | "
		}
		s += n
	}
	return s
}

// setupDone returns the cold set-up time: from process start to the end
// of the workload's set-up.
func setupDone() float64 { return time.Since(procStart).Seconds() }

// peakRSSMB is the process's peak resident set in MB: VmHWM of
// /proc/self/status, which starts afresh at exec (getrusage's maxrss
// would carry over the peak of the shell that exec'd the benchmark).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta captures GC cycles and allocated bytes over a measured phase.
type memDelta struct{ gc0, alloc0 uint64 }

func startMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{uint64(ms.NumGC), ms.TotalAlloc}
}

// stop returns the GC cycles and MB allocated since startMem.
func (m memDelta) stop() (gcCycles, allocMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(uint64(ms.NumGC) - m.gc0), float64(ms.TotalAlloc-m.alloc0) / (1 << 20)
}
