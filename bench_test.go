package neptune

// Benchmarks regenerating the paper's tables and figures. Each benchmark
// corresponds to one artifact of the evaluation section (see DESIGN.md §4
// for the experiment index); `go test -bench=. -benchmem` prints the same
// quantities the paper plots as custom metrics.
//
// Real-engine benchmarks (Fig. 2 measured columns, Table I, object reuse,
// Fig. 4, compression, headline single node) drive the actual engine for a
// fixed window per iteration and report pkts/s; cluster benchmarks
// (Figs. 5, 6, 7, 9, 10, headline cluster numbers) run the testbed model.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// benchWindow is the measurement window per real-engine iteration.
const benchWindow = 300 * time.Millisecond

// runRelayBench runs the relay b.N times and reports packet throughput.
func runRelayBench(b *testing.B, cfg experiments.RelayConfig) {
	b.Helper()
	cfg.Duration = benchWindow
	var pkts, ns float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRelay(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pkts += float64(res.Received)
		ns += float64(res.Elapsed.Nanoseconds())
		b.ReportMetric(float64(res.P50Latency.Microseconds()), "p50-lat-µs")
		b.ReportMetric(float64(res.P99Latency.Microseconds()), "p99-lat-µs")
	}
	b.ReportMetric(pkts/(ns/1e9), "pkts/s")
}

// BenchmarkFig2BufferSweep regenerates Figure 2's measured columns:
// relay throughput versus application-level buffer size for two
// representative message sizes.
func BenchmarkFig2BufferSweep(b *testing.B) {
	for _, msg := range []int{50, 1024} {
		for _, buf := range experiments.Fig2BufferSizes {
			b.Run(fmt.Sprintf("msg=%dB/buffer=%dKB", msg, buf>>10), func(b *testing.B) {
				runRelayBench(b, experiments.RelayConfig{
					MsgBytes:    msg,
					BufferBytes: buf,
					Batching:    true,
					Pooling:     true,
				})
			})
		}
	}
}

// BenchmarkTable1ContextSwitches regenerates Table I: context-switch
// equivalents per 5 seconds under batched vs. per-message scheduling.
func BenchmarkTable1ContextSwitches(b *testing.B) {
	for _, batched := range []bool{true, false} {
		name := "batched"
		if !batched {
			name = "individual"
		}
		b.Run(name, func(b *testing.B) {
			var switches, seconds float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRelay(experiments.RelayConfig{
					MsgBytes:    50,
					BufferBytes: 1 << 20,
					Batching:    batched,
					Pooling:     true,
					Duration:    benchWindow,
				})
				if err != nil {
					b.Fatal(err)
				}
				switches += float64(res.Switches)
				seconds += res.Elapsed.Seconds()
			}
			b.ReportMetric(switches/seconds*5, "switches/5s")
		})
	}
}

// BenchmarkObjectReuse regenerates the §III-B3 result: allocation pressure
// with and without pooling (allocs/op from -benchmem tells the story).
func BenchmarkObjectReuse(b *testing.B) {
	for _, pooled := range []bool{true, false} {
		name := "pooled"
		if !pooled {
			name = "unpooled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			runRelayBench(b, experiments.RelayConfig{
				MsgBytes:    50,
				BufferBytes: 1 << 20,
				Batching:    true,
				Pooling:     pooled,
			})
		})
	}
}

// BenchmarkFig4Backpressure regenerates Figure 4's mechanism: relay
// throughput with the sink sleeping per packet. Throughput must track the
// inverse of the sink delay.
func BenchmarkFig4Backpressure(b *testing.B) {
	for _, sleepMs := range []int64{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("sink-sleep=%dms", sleepMs), func(b *testing.B) {
			var delay atomic.Int64
			delay.Store(sleepMs * int64(time.Millisecond))
			runRelayBench(b, experiments.RelayConfig{
				MsgBytes:    100,
				BufferBytes: 4 << 10,
				Batching:    true,
				Pooling:     true,
				SinkDelayNs: &delay,
				// A permanently slow sink turns standing queues into
				// drain time; small watermarks keep Stop prompt.
				InLowWatermark:   8 << 10,
				InHighWatermark:  16 << 10,
				OutLowWatermark:  8 << 10,
				OutHighWatermark: 16 << 10,
			})
		})
	}
}

// BenchmarkCompression regenerates the §III-B5 study: relay throughput on
// sensor vs. random data with compression off / always / selective.
func BenchmarkCompression(b *testing.B) {
	modes := []struct {
		name   string
		thresh float64
	}{{"off", 0}, {"always", 8}, {"selective", 6.5}}
	for _, dataset := range []string{"sensor", "random"} {
		for _, m := range modes {
			b.Run(dataset+"/"+m.name, func(b *testing.B) {
				cfg := experiments.RelayConfig{
					MsgBytes:             330,
					BufferBytes:          64 << 10,
					Batching:             true,
					Pooling:              true,
					CompressionThreshold: m.thresh,
				}
				if dataset == "sensor" {
					cfg.Payload = experiments.SensorPayload()
				} else {
					cfg.Payload = experiments.RandomPayload()
				}
				runRelayBench(b, cfg)
			})
		}
	}
}

// solveBench runs a cluster-model scenario once per iteration and reports
// cumulative throughput.
func solveBench(b *testing.B, nodes int, mkJobs func() []cluster.JobSpec) {
	b.Helper()
	var cum float64
	for i := 0; i < b.N; i++ {
		c := cluster.New(nodes)
		res, _, err := c.Solve(mkJobs(), time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		cum = 0
		for _, r := range res {
			cum += r.Throughput
		}
	}
	b.ReportMetric(cum, "cum-pkts/s")
}

// BenchmarkFig5JobScaling regenerates Figure 5: cumulative throughput at
// three operating points — underprovisioned, peak, overprovisioned.
func BenchmarkFig5JobScaling(b *testing.B) {
	for _, jobs := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			solveBench(b, 50, func() []cluster.JobSpec {
				specs := make([]cluster.JobSpec, jobs)
				for i := range specs {
					specs[i] = cluster.AllPairsJob(cluster.Neptune, 50, 128, 1<<20)
				}
				return specs
			})
		})
	}
}

// BenchmarkFig6NodeScaling regenerates Figure 6: 50 jobs, growing cluster.
func BenchmarkFig6NodeScaling(b *testing.B) {
	for _, nodes := range []int{10, 25, 50} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			n := nodes
			solveBench(b, n, func() []cluster.JobSpec {
				specs := make([]cluster.JobSpec, 50)
				for i := range specs {
					specs[i] = cluster.AllPairsJob(cluster.Neptune, n, 128, 1<<20)
				}
				return specs
			})
		})
	}
}

// BenchmarkFig7VsStorm regenerates Figure 7: relay throughput per engine
// and message size on the testbed model.
func BenchmarkFig7VsStorm(b *testing.B) {
	for _, engine := range []cluster.EngineKind{cluster.Neptune, cluster.Storm} {
		for _, msg := range []int{50, 1024, 10240} {
			eng := engine
			b.Run(fmt.Sprintf("%s/msg=%dB", engine, msg), func(b *testing.B) {
				m := msg
				solveBench(b, 2, func() []cluster.JobSpec {
					return []cluster.JobSpec{cluster.RelayJob(eng, m, 1<<20, 0, 1)}
				})
			})
		}
	}
}

// BenchmarkFig9Manufacturing regenerates Figure 9: the manufacturing
// monitoring job's cumulative throughput per engine at 32 jobs.
func BenchmarkFig9Manufacturing(b *testing.B) {
	for _, engine := range []cluster.EngineKind{cluster.Neptune, cluster.Storm} {
		eng := engine
		b.Run(engine.String(), func(b *testing.B) {
			solveBench(b, 50, func() []cluster.JobSpec {
				specs := make([]cluster.JobSpec, 32)
				for i := range specs {
					specs[i] = cluster.ManufacturingJob(eng, 50, i)
				}
				return specs
			})
		})
	}
}

// BenchmarkFig10Resources regenerates Figure 10: per-node CPU cores used
// at the 50-jobs-on-50-nodes operating point.
func BenchmarkFig10Resources(b *testing.B) {
	for _, engine := range []cluster.EngineKind{cluster.Neptune, cluster.Storm} {
		eng := engine
		b.Run(engine.String(), func(b *testing.B) {
			var meanCPU float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(50)
				specs := make([]cluster.JobSpec, 50)
				for j := range specs {
					specs[j] = cluster.ManufacturingJob(eng, 50, j)
				}
				_, stats, err := c.Solve(specs, time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, v := range stats.CPUUsed {
					sum += v
				}
				meanCPU = sum / 50
			}
			b.ReportMetric(meanCPU, "cpu-cores/node")
		})
	}
}

// BenchmarkHeadlineSingleNode measures the real engine's relay throughput
// with the paper's default configuration (1 MB buffers, 50 B messages) —
// the in-process counterpart of the paper's ~2M packets/s single-node
// headline.
func BenchmarkHeadlineSingleNode(b *testing.B) {
	runRelayBench(b, experiments.RelayConfig{
		MsgBytes:    50,
		BufferBytes: 1 << 20,
		Batching:    true,
		Pooling:     true,
	})
}

// BenchmarkHeadlineParallelism sweeps the relay/receiver parallelism of
// the headline relay on the unsharded engine (DESIGN.md §13): every
// instance shares its engine's one Granules resource, whose work-stealing
// workers spread the instances over the available cores (run with -cpu
// to vary the core budget).
func BenchmarkHeadlineParallelism(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			runRelayBench(b, experiments.RelayConfig{
				MsgBytes:    50,
				BufferBytes: 1 << 20,
				Batching:    true,
				Pooling:     true,
				Parallelism: par,
			})
		})
	}
}

// BenchmarkLatencyTargetSweep measures the adaptive QoS runtime
// (DESIGN.md §16) on an offered-load relay: an IoT-gateway-style source
// pushes 200k pkts/s through deliberately latency-hostile static knobs
// (1 MB buffers, 50 ms flush timer). Untargeted, the batching delay
// dominates end-to-end p99; with a latency target the controller halves
// the capacity and flush bounds per hop until each link's share of the
// end-to-end budget is met. p50/p99 and controller activity are
// recorded alongside pkts/s. Runs are longer than the usual bench
// window so the controller's convergence transient does not dominate
// the latency distribution. (The saturation throughput headline is
// BenchmarkHeadlineSingleNode; an offered-load job is used here because
// no batching knob can tune away a saturated pipeline's standing
// queues.)
func BenchmarkLatencyTargetSweep(b *testing.B) {
	for _, target := range []time.Duration{0, 50 * time.Millisecond, 10 * time.Millisecond} {
		name := "untargeted"
		if target > 0 {
			name = "target=" + target.String()
		}
		tgt := target
		b.Run(name, func(b *testing.B) {
			var pkts, ns float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRelay(experiments.RelayConfig{
					MsgBytes:      50,
					BufferBytes:   1 << 20,
					FlushInterval: 50 * time.Millisecond,
					Batching:      true,
					Pooling:       true,
					Duration:      20 * time.Second,
					RateLimit:     200_000,
					LatencyTarget: tgt,
					QoSTick:       5 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				pkts += float64(res.Received)
				ns += float64(res.Elapsed.Nanoseconds())
				b.ReportMetric(float64(res.P50Latency.Microseconds()), "p50-lat-µs")
				b.ReportMetric(float64(res.P99Latency.Microseconds()), "p99-lat-µs")
				b.ReportMetric(float64(res.QoSEscalations), "escalations")
				b.ReportMetric(float64(res.ChainedLinks), "chained-links")
			}
			b.ReportMetric(pkts/(ns/1e9), "pkts/s")
		})
	}
}

// BenchmarkHeadlineCluster solves the 50-node relay fleet (the ~100M
// packets/s headline) on the testbed model.
func BenchmarkHeadlineCluster(b *testing.B) {
	solveBench(b, 50, func() []cluster.JobSpec {
		specs := make([]cluster.JobSpec, 50)
		for i := range specs {
			specs[i] = cluster.RelayJob(cluster.Neptune, 50, 1<<20, i, (i+1)%50)
		}
		return specs
	})
}
