package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/stats"
)

// spec is the part of BENCHMARK.json that compare mode judges by.
type spec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// summary is one side's runs of one metric on one workload.
type summary struct {
	q1, median, q3 float64
	spread         float64 // (q3 - q1) / median
	min, max       float64
}

func summarize(values []float64) summary {
	var s summary
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.q1 = stats.Quantile(sorted, 0.25)
	s.median = stats.Quantile(sorted, 0.5)
	s.q3 = stats.Quantile(sorted, 0.75)
	if s.median != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.median)
	}
	s.min, s.max = sorted[0], sorted[len(sorted)-1]
	return s
}

// comparison is the judgement of the change against the parent for one
// metric on one workload.
type comparison struct {
	parent, change summary
	wins, pairs    int
	verdict        string
}

// compare applies the rule: the change gains only if it wins at least
// nine tenths of the pairs (ties count for neither side) and the medians
// differ by more than the parent's interquartile range; it regresses if
// its median is worse than the parent's by more than the bound. Where
// either side's spread exceeds the bound, the metric is unresolved unless
// every run of the change is better than every run of the parent.
func compare(b boundSpec, parent, change []float64) comparison {
	c := comparison{parent: summarize(parent), change: summarize(change)}
	better := func(x, y float64) bool { // x better than y
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(parent), len(change))
	for i := 0; i < c.pairs; i++ {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	p, ch := c.parent, c.change
	allBetter := (b.Better == "higher" && ch.min > p.max) || (b.Better != "higher" && ch.max < p.min)
	gap := math.Abs(ch.median - p.median)
	worse := ch.median - p.median // how much worse, as a positive number
	if b.Better == "higher" {
		worse = -worse
	}
	switch {
	case (p.spread > b.Bound || ch.spread > b.Bound) && !allBetter:
		c.verdict = verdictUnresolved
	case better(ch.median, p.median) && c.pairs > 0 && 10*c.wins >= 9*c.pairs && gap > p.q3-p.q1:
		c.verdict = verdictGain
	case worse > b.Bound*math.Abs(p.median):
		c.verdict = verdictRegression
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// compareMain reads two result sets (JSON lines written with --out) and
// prints, per end-to-end metric and workload, each side's median and
// quartiles, the pair wins and the verdict; then the per-layer medians
// and each side's tracing overhead. It exits 1 if any metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: nbench compare [--spec BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		fmt.Fprintf(stderr, "nbench compare: %v\n", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "nbench compare: %v\n", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "nbench compare: %v\n", err)
		return 2
	}
	regressed := false
	fmt.Fprintf(stdout, "%-12s %-20s %12s %12s %12s %12s %12s %12s %6s %6s  %s\n",
		"workload", "metric", "parent.q1", "parent.med", "parent.q3", "change.q1", "change.med", "change.q3", "wins", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, b := range sp.EndToEnd {
			pv, cv := values(parent, w, false, b.Name), values(change, w, false, b.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			c := compare(b, pv, cv)
			if c.verdict == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-12s %-20s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %3d/%-2d %6.3g  %s",
				w, b.Name, c.parent.q1, c.parent.median, c.parent.q3, c.change.q1, c.change.median, c.change.q3,
				c.wins, c.pairs, b.Bound, c.verdict)
			if c.verdict == verdictUnresolved {
				fmt.Fprintf(stdout, " (spread %.3g / %.3g)", c.parent.spread, c.change.spread)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "\n%-12s %-34s %14s %14s\n", "workload", "per-layer metric (traced)", "parent.med", "change.med")
	for _, w := range workloadNames() {
		for _, b := range sp.PerLayer {
			pv, cv := values(parent, w, true, b.Name), values(change, w, true, b.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%-12s %-34s %14.5g %14.5g\n", w, b.Name, summarize(pv).median, summarize(cv).median)
		}
	}
	for _, set := range []struct {
		name string
		recs []record
	}{{"parent", parent}, {"change", change}} {
		printOverhead(stdout, set.name, set.recs)
	}
	if regressed {
		return 1
	}
	return 0
}

// printOverhead prints the tracing overhead of one result set: the traced
// runs' end-to-end medians minus the untraced runs'.
func printOverhead(w io.Writer, name string, recs []record) {
	header := false
	for _, wl := range workloadNames() {
		for _, n := range []string{"throughput_pps", "cpu_us_per_pkt", "latency_p50_ms", "latency_p99_ms"} {
			off, on := values(recs, wl, false, n), values(recs, wl, true, "trace."+n)
			if len(off) == 0 || len(on) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\ntracing overhead, %s runs\n%-12s %-16s %12s %12s %12s\n", name, "workload", "metric", "untraced", "traced", "overhead")
				header = true
			}
			a, b := summarize(off).median, summarize(on).median
			fmt.Fprintf(w, "%-12s %-16s %12.5g %12.5g %+11.1f%%\n", wl, n, a, b, 100*(b-a)/a)
		}
	}
}

// values collects one metric of one workload from a result set, in run
// order, from traced or untraced runs.
func values(recs []record, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
