// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment returns a Table whose rows mirror
// what the paper plots; cmd/neptune-bench renders them and EXPERIMENTS.md
// records paper-vs-measured values.
//
// Two kinds of experiments coexist:
//
//   - Engine experiments (Fig. 2 measured columns, Table I, the object
//     reuse result, Fig. 4, the compression study) drive the real
//     in-process engine and measure it.
//   - Cluster experiments (Figs. 5, 6, 7, 9, 10 and the headline cluster
//     numbers) use the internal/cluster testbed model, since the paper's
//     50-node 1 Gbps cluster is not available (see DESIGN.md §3).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/packet"
)

// Table is one experiment's output: a header and data rows, renderable as
// an aligned text table.
type Table struct {
	// ID is the paper artifact this regenerates ("fig2", "table1", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold formatted cells (len == len(Columns)).
	Rows [][]string
	// Notes carry interpretation (significance decisions, bottlenecks).
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends an interpretation note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n* %s\n", n)
	}
	return b.String()
}

// RelayConfig parameterizes one run of the real three-stage message relay
// (paper Fig. 1): sender and receiver on engine A, relay on engine B,
// connected in-process.
type RelayConfig struct {
	// MsgBytes is the payload size of each stream packet.
	MsgBytes int
	// BufferBytes is the application-level buffer capacity.
	BufferBytes int
	// FlushInterval is the buffer timer bound (0: engine default 10 ms).
	FlushInterval time.Duration
	// Batching and Pooling toggle the respective optimizations.
	Batching, Pooling bool
	// CompressionThreshold is the entropy gate (0 = off).
	CompressionThreshold float64
	// Duration is how long the source emits.
	Duration time.Duration
	// InLowWatermark/InHighWatermark override the inbound backpressure
	// watermarks (0: engine defaults). Small values keep the standing
	// queue — and hence the drain time — short when the sink is slow.
	InLowWatermark, InHighWatermark int64
	// OutLowWatermark/OutHighWatermark override the transport outbound
	// watermarks (0: engine defaults).
	OutLowWatermark, OutHighWatermark int64
	// Payload selects the payload generator: nil means a fixed
	// moderately-compressible pattern; otherwise called once per packet.
	Payload func(i uint64, buf []byte) []byte
	// SinkDelayNs, when non-nil, is read per packet at the receiver and
	// slept (the Fig. 3/4 variable-rate stage C).
	SinkDelayNs *atomic.Int64
	// Parallelism sets the relay/receiver operator instance count (0 =
	// 1).
	Parallelism int
	// RateLimit, when positive, throttles the sender to that many
	// packets/second (core.Throttle) — an offered-load source, as IoT
	// gateways behave. Latency-target runs need it: a saturating source
	// keeps every bounded queue full, and no batching knob can tune away
	// standing-queue delay.
	RateLimit float64
	// LatencyTarget enables the adaptive QoS runtime with the given
	// end-to-end sojourn goal (core.Config.LatencyTarget); zero leaves
	// the job untargeted (static knobs, no controller).
	LatencyTarget time.Duration
	// QoSTick overrides the controller period (0: engine default).
	QoSTick time.Duration
	// RelayWorkNs busy-spins the relay processor per packet, simulating
	// domain-specific processing logic (the paper's non-communication
	// experiments use complex multi-stage jobs; without this, the
	// in-process engine is so fast that any added cost dominates).
	RelayWorkNs int64
	// OnSample, when non-nil, is invoked every SampleEvery with the
	// cumulative receiver count (for time-series experiments).
	OnSample    func(elapsed time.Duration, received uint64)
	SampleEvery time.Duration
}

// RelayResult is the measured outcome of one relay run.
type RelayResult struct {
	Received    uint64
	Elapsed     time.Duration
	Throughput  float64 // packets/s observed at the receiver
	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration
	BytesOut    uint64 // frame bytes sent by engine A (sender side)
	BatchesOut  uint64
	Switches    uint64 // context-switch equivalents on engine B (relay)
	PoolHitRate float64
	AllocPerPkt float64 // heap allocations per received packet

	// QoS runtime outcome (zero when LatencyTarget was unset).
	QoSEscalations uint64 // tuning-level increases the controller applied
	QoSRelaxations uint64 // tuning-level decreases
	ChainedLinks   int    // links fused at the end of the run
	ChainDelivered uint64 // packets that rode a fused direct call
}

// relaySpec builds the Fig. 1 graph with par parallel relay/receiver
// instances (par <= 1 is the paper's single-instance pipeline).
func relaySpec(par int) *graph.Spec {
	if par < 1 {
		par = 1
	}
	s := &graph.Spec{
		Name: "relay",
		Operators: []graph.OperatorSpec{
			{Name: "sender", Kind: graph.KindSource},
			{Name: "relay", Kind: graph.KindProcessor, Parallelism: par},
			{Name: "receiver", Kind: graph.KindProcessor, Parallelism: par},
		},
		Links: []graph.LinkSpec{
			{From: "sender", To: "relay"},
			{From: "relay", To: "receiver"},
		},
	}
	s.Normalize()
	return s
}

// defaultPayload fills buf with a deterministic sensor-like pattern.
func defaultPayload(i uint64, buf []byte) []byte {
	for k := range buf {
		buf[k] = byte('a' + (int(i)+k/8)%20)
	}
	return buf
}

// RunRelay executes the relay for cfg.Duration and reports measurements.
func RunRelay(cfg RelayConfig) (RelayResult, error) {
	ecfg := core.DefaultConfig()
	ecfg.BufferSize = cfg.BufferBytes
	if cfg.FlushInterval > 0 {
		ecfg.FlushInterval = cfg.FlushInterval
	}
	ecfg.Batching = cfg.Batching
	ecfg.Pooling = cfg.Pooling
	ecfg.CompressionThreshold = cfg.CompressionThreshold
	if cfg.InHighWatermark > 0 {
		ecfg.InHighWatermark = cfg.InHighWatermark
		ecfg.InLowWatermark = cfg.InLowWatermark
	}
	if cfg.OutHighWatermark > 0 {
		ecfg.OutHighWatermark = cfg.OutHighWatermark
		ecfg.OutLowWatermark = cfg.OutLowWatermark
	}
	ecfg.LatencyTarget = cfg.LatencyTarget
	if cfg.QoSTick > 0 {
		ecfg.QoSTick = cfg.QoSTick
	}
	eA, err := core.NewEngine("A", ecfg)
	if err != nil {
		return RelayResult{}, err
	}
	eB, err := core.NewEngine("B", ecfg)
	if err != nil {
		return RelayResult{}, err
	}

	payloadFn := cfg.Payload
	if payloadFn == nil {
		payloadFn = defaultPayload
	}
	var emitted atomic.Uint64
	var received atomic.Uint64
	stop := atomic.Bool{}

	job, err := core.NewJob(relaySpec(cfg.Parallelism), ecfg)
	if err != nil {
		return RelayResult{}, err
	}
	job.SetSource("sender", func(int) core.Source {
		buf := make([]byte, cfg.MsgBytes)
		var src core.Source = core.SourceFunc(func(ctx *core.OpContext) error {
			if stop.Load() {
				return io.EOF
			}
			p := ctx.NewPacket()
			i := emitted.Add(1)
			p.AddBytes("payload", payloadFn(i, buf))
			return ctx.EmitDefault(p)
		})
		if cfg.RateLimit > 0 {
			// Burst sized to ~10 ms of tokens: the throttle sleeps one
			// burst at a time, so a fixed small burst would cap the
			// effective rate at burst-per-OS-timer-tick.
			src = core.Throttle(cfg.RateLimit, int(cfg.RateLimit/100)+64, src)
		}
		return src
	})
	job.SetProcessor("relay", func(int) core.Processor {
		return core.ProcessorFunc(func(ctx *core.OpContext, p *packet.Packet) error {
			if cfg.RelayWorkNs > 0 {
				spin(cfg.RelayWorkNs)
			}
			return ctx.EmitDefault(p)
		})
	})
	job.SetProcessor("receiver", func(int) core.Processor {
		return core.ProcessorFunc(func(ctx *core.OpContext, p *packet.Packet) error {
			received.Add(1)
			if cfg.SinkDelayNs != nil {
				if d := cfg.SinkDelayNs.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
			}
			return nil
		})
	})
	place := func(op string, _ int) int {
		if op == "relay" {
			return 1
		}
		return 0
	}
	start := time.Now()
	if err := job.LaunchOn([]*core.Engine{eA, eB}, place, nil); err != nil {
		return RelayResult{}, err
	}
	// Sampling / duration loop.
	if cfg.OnSample != nil && cfg.SampleEvery > 0 {
		ticker := time.NewTicker(cfg.SampleEvery)
		end := time.After(cfg.Duration)
	loop:
		for {
			select {
			case <-ticker.C:
				cfg.OnSample(time.Since(start), received.Load())
			case <-end:
				ticker.Stop()
				break loop
			}
		}
	} else {
		time.Sleep(cfg.Duration)
	}
	stop.Store(true)
	if err := job.Stop(60 * time.Second); err != nil {
		return RelayResult{}, err
	}
	elapsed := time.Since(start)

	res := RelayResult{
		Received: received.Load(),
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Received) / elapsed.Seconds()
	}
	lat := job.LatencySnapshot("receiver")
	res.MeanLatency = time.Duration(lat.MeanNs)
	res.P50Latency = time.Duration(lat.P50Ns)
	res.P99Latency = time.Duration(lat.P99Ns)
	res.BytesOut = eA.Metrics().Counter("bytes_out").Value()
	res.BatchesOut = eA.Metrics().Counter("batches_out").Value()
	res.Switches = eB.ContextSwitches()
	res.PoolHitRate = eA.PacketPoolStats().HitRate()
	if qh := job.LatencyHealth(); qh.Enabled {
		res.QoSEscalations = qh.Escalations
		res.QoSRelaxations = qh.Relaxations
		res.ChainedLinks = qh.ChainedLinks
		res.ChainDelivered = qh.ChainDelivered
	}
	return res, nil
}

// spin busy-waits for roughly ns nanoseconds, standing in for CPU-bound
// per-packet processing logic.
func spin(ns int64) {
	deadline := time.Now().UnixNano() + ns
	for time.Now().UnixNano() < deadline {
	}
}

// randBytes returns n random bytes from rng.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
