// Command perfbench is the repository benchmark. One invocation runs one
// named workload against a single IPS instance served over loopback RPC,
// generates its load from --seed inside this process, checks the results,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run measures the workload twice (untraced, then traced) and prints the
// per-layer metrics of the traced phase. README.md describes the
// workloads, the metrics and the layer ladder.
//
//	go run . --workload read_resident --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// verbose enables progress lines on standard error (PERFBENCH_VERBOSE=1).
var verbose = os.Getenv("PERFBENCH_VERBOSE") == "1"

func logf(format string, args ...any) {
	if verbose {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts carries the command line into a workload.
type runOpts struct {
	seed    int64
	measure time.Duration
	trace   bool
	workDir string
}

// setupRepeats is how many times an untraced run builds its environment;
// setup_s is the median. The last build serves the measured phase.
const setupRepeats = 3

var workloads = map[string]func(runOpts) (*result, error){
	"read_resident": func(o runOpts) (*result, error) { return runRead(o, residentSpec) },
	"read_tiered":   func(o runOpts) (*result, error) { return runRead(o, tieredSpec) },
	"write_push":    runPush,
}

func main() {
	name := flag.String("workload", "", "workload to run: read_resident, read_tiered or write_push")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of each measured phase, in seconds")
	traceFlag := flag.Int("trace", 0, "0: print end-to-end metrics; 1: run a traced phase and print per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_work", *name+"-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		os.Exit(1)
	}
	steal0, total0 := cpuStat()
	res, err := fn(runOpts{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		workDir: workDir,
	})
	// The work dir holds only this run's journal files.
	_ = os.RemoveAll(workDir)
	_ = os.Remove(filepath.Dir(workDir)) // fails while another run uses it
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	steal1, total1 := cpuStat()
	fmt.Printf("machine: nproc=%d gomaxprocs=%d go=%s commit=%s cpu_steal=%.2f%%\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	names := make([]string, 0, len(res.Metrics))
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v; reported as 0\n", k, m.Value)
			res.Metrics[k] = metric{0, m.Unit}
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %16.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
