// Command perfbench is the wall-clock benchmark of the live ShadowDB
// stack. One invocation measures one workload for a fixed time and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with
// tracing off); with -trace 1 they are the per-layer ones, taken from a
// separate traced run. Every run checks the outputs of the system it
// drove; a failed check sets "correct" to false but never drops metrics.
//
// Usage (normally through run.sh, which builds this binary and the node
// binary from the checkout first):
//
//	perfbench -workload smr-bank -seed 1 -seconds 20 -trace 0 \
//	    -node-bin .bench_build/bin/shadowdb -tmp .bench_build/tmp
//
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nodeBin  string
	tmp      string
}

// outcome is what a workload hands back to main: the correctness
// verdict, the attempt/failure counts, and both metric sets (main picks
// the one the run asked for).
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       metricSet
	layers    metricSet
}

var workloads = map[string]func(options) (outcome, error){
	"smr-bank":          runSMRBank,
	"pbr-tpcc-failover": runTPCCFailover,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "smr-bank | pbr-tpcc-failover")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics (tracing off), 1 = per-layer metrics (traced run)")
	flag.StringVar(&o.nodeBin, "node-bin", "", "path of the built cmd/shadowdb binary (the TCP deployment of a traced smr-bank run)")
	flag.StringVar(&o.tmp, "tmp", "", "directory for per-run scratch data (data dirs, node logs)")
	flag.Parse()
	o.trace = traceFlag != 0
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || o.tmp == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -tmp set")
		return 2
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.tmp = dir
	// Every exit path, a signal included, stops the node processes and
	// removes the run's scratch directory.
	defer cleanup()
	onCleanup(func() { _ = os.RemoveAll(dir) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	describe(o)
	out, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ms := out.e2e
	if o.trace {
		ms = out.layers
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(report{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// describe prints the machine facts and run settings as comment lines,
// so every saved output says where and how it was measured.
func describe(o options) {
	fmt.Printf("# machine: nproc=%d cpu=%q go=%s os=%s/%s\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# run: workload=%s seed=%d seconds=%g trace=%v started=%s\n",
		o.workload, o.seed, o.seconds, o.trace, time.Now().UTC().Format(time.RFC3339))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// note prints one human-readable result line (a comment for parsers).
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}
