// Command nbench is the repository benchmark. It drives the engine only
// through its public surface on three workloads (relay-sat, sensor-tcp,
// gateway-qos), checks every delivered packet, and prints one JSON result
// as the last line of standard output: end-to-end metrics with tracing
// off, per-layer metrics with tracing on. A compare mode judges two result
// sets against the bounds in BENCHMARK.json. See README.md.
//
//	go run . --workload relay-sat --seed 1 --seconds 10 --trace 0
//	go run . compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("nbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds (after warm-up)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", "", "also append the result as one JSON line to this file (input to compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "nbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	fmt.Fprintf(stderr, "nbench: workload=%s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d NumCPU=%d\n",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	res, err := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "nbench: %s: %v\n", w.name, err)
		return 1
	}
	printTable(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "nbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace == 1, Result: res}); err != nil {
			fmt.Fprintf(stderr, "nbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "nbench: %s: %d of %d accepted packets failed the output checks\n",
			w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a result set: a run's result with the settings
// that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open result set: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write result set: %w", err)
	}
	return f.Close()
}

// printTable prints every metric by name with its unit, one per line.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-34s %16d of %d accepted (correct=%v)\n", "failed", res.Failed, res.Attempted, res.Correct)
}
