package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/transport"
)

// countingSource emits n packets of the given payload size, then EOF.
type countingSource struct {
	n       int
	payload int
	sent    atomic.Int64
	perNext int
}

func (s *countingSource) Open(*OpContext) error { return nil }
func (s *countingSource) Close() error          { return nil }
func (s *countingSource) Next(ctx *OpContext) error {
	per := s.perNext
	if per <= 0 {
		per = 1
	}
	for i := 0; i < per; i++ {
		if int(s.sent.Load()) >= s.n {
			return io.EOF
		}
		p := ctx.NewPacket()
		p.AddInt64("i", s.sent.Load())
		if s.payload > 0 {
			p.AddBytes("pad", make([]byte, s.payload))
		}
		if err := ctx.EmitDefault(p); err != nil {
			return err
		}
		s.sent.Add(1)
	}
	return nil
}

// collectSink records every value of field "i" it sees.
type collectSink struct {
	mu     sync.Mutex
	seen   map[int64]int
	count  atomic.Int64
	delay  time.Duration
	onProc func(ctx *OpContext, p *packet.Packet) error
}

func newCollectSink() *collectSink { return &collectSink{seen: map[int64]int{}} }

func (s *collectSink) Open(*OpContext) error { return nil }
func (s *collectSink) Close() error          { return nil }
func (s *collectSink) Process(ctx *OpContext, p *packet.Packet) error {
	if s.onProc != nil {
		if err := s.onProc(ctx, p); err != nil {
			return err
		}
	}
	v, err := p.Int64("i")
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.seen[v]++
	s.mu.Unlock()
	s.count.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return nil
}

func (s *collectSink) exactlyOnce(t *testing.T, n int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.seen) != n {
		t.Fatalf("saw %d distinct values, want %d", len(s.seen), n)
	}
	for v, c := range s.seen {
		if c != 1 {
			t.Fatalf("value %d processed %d times", v, c)
		}
	}
}

// relayProc forwards every packet unchanged (the Fig. 1 message relay).
type relayProc struct{}

func (relayProc) Open(*OpContext) error { return nil }
func (relayProc) Close() error          { return nil }
func (relayProc) Process(ctx *OpContext, p *packet.Packet) error {
	return ctx.EmitDefault(p)
}

func twoStageSpec(parallel int) *graph.Spec {
	s := &graph.Spec{
		Name: "two-stage",
		Operators: []graph.OperatorSpec{
			{Name: "src", Kind: graph.KindSource},
			{Name: "sink", Kind: graph.KindProcessor, Parallelism: parallel},
		},
		Links: []graph.LinkSpec{{From: "src", To: "sink", Partitioner: "round-robin"}},
	}
	s.Normalize()
	return s
}

func relaySpec() *graph.Spec {
	s := &graph.Spec{
		Name: "relay",
		Operators: []graph.OperatorSpec{
			{Name: "sender", Kind: graph.KindSource},
			{Name: "relay", Kind: graph.KindProcessor},
			{Name: "receiver", Kind: graph.KindProcessor},
		},
		Links: []graph.LinkSpec{
			{From: "sender", To: "relay"},
			{From: "relay", To: "receiver"},
		},
	}
	s.Normalize()
	return s
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BufferSize = 4096
	cfg.FlushInterval = 2 * time.Millisecond
	cfg.VerifyOrdering = true
	return cfg
}

// runToCompletion launches the job, waits for sources, drains, stops.
func runToCompletion(t *testing.T, j *Job) {
	t.Helper()
	if err := j.Launch(); err != nil {
		t.Fatal(err)
	}
	finishJob(t, j)
}

func finishJob(t *testing.T, j *Job) {
	t.Helper()
	if !j.WaitSources(30 * time.Second) {
		j.Stop(time.Second)
		t.Fatal("sources never finished")
	}
	if err := j.Stop(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTwoStageExactlyOnceInOrder(t *testing.T) {
	const n = 10_000
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	if got := sink.count.Load(); got != n {
		t.Fatalf("sink processed %d, want %d", got, n)
	}
	sink.exactlyOnce(t, n)
	if j.OperatorCounter("sink", ".processed") != n {
		t.Fatalf("processed counter = %d", j.OperatorCounter("sink", ".processed"))
	}
	if j.OperatorCounter("src", ".emitted") != n {
		t.Fatalf("emitted counter = %d", j.OperatorCounter("src", ".emitted"))
	}
}

func TestThreeStageRelayForwarding(t *testing.T) {
	const n = 5_000
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(relaySpec(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return src })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(int) Processor { return sink })
	runToCompletion(t, j)
	sink.exactlyOnce(t, n)
	if j.OperatorCounter("relay", ".processed") != n || j.OperatorCounter("relay", ".emitted") != n {
		t.Fatalf("relay counters: %d/%d", j.OperatorCounter("relay", ".processed"), j.OperatorCounter("relay", ".emitted"))
	}
	// Sink latency recorded for every packet.
	lat := j.LatencySnapshot("receiver")
	if lat.Count != n {
		t.Fatalf("latency count = %d", lat.Count)
	}
	if lat.P99Ns <= 0 || lat.MaxNs < lat.P99Ns {
		t.Fatalf("latency snapshot inconsistent: %+v", lat)
	}
}

func TestParallelSinkRoundRobin(t *testing.T) {
	const n, par = 8_000, 4
	src := &countingSource{n: n}
	sinks := make([]*collectSink, par)
	j, err := NewJob(twoStageSpec(par), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(i int) Processor {
		sinks[i] = newCollectSink()
		return sinks[i]
	})
	runToCompletion(t, j)
	var total int64
	for i, s := range sinks {
		c := s.count.Load()
		if c == 0 {
			t.Fatalf("sink instance %d processed nothing", i)
		}
		total += c
	}
	if total != n {
		t.Fatalf("total processed %d, want %d", total, n)
	}
	// Round-robin balances exactly (one sender).
	for i, s := range sinks {
		if c := s.count.Load(); c != n/par {
			t.Fatalf("instance %d got %d, want %d", i, c, n/par)
		}
	}
}

func TestFieldsPartitioningKeyAffinity(t *testing.T) {
	// Packets with the same key must land on the same instance.
	const n, par = 4_000, 3
	spec := &graph.Spec{
		Name: "keyed",
		Operators: []graph.OperatorSpec{
			{Name: "src", Kind: graph.KindSource},
			{Name: "sink", Kind: graph.KindProcessor, Parallelism: par},
		},
		Links: []graph.LinkSpec{{From: "src", To: "sink", Partitioner: "fields:key"}},
	}
	spec.Normalize()

	var emitted atomic.Int64
	src := SourceFunc(func(ctx *OpContext) error {
		i := emitted.Load()
		if i >= n {
			return io.EOF
		}
		p := ctx.NewPacket()
		p.AddInt64("i", i)
		p.AddInt64("key", i%17)
		if err := ctx.EmitDefault(p); err != nil {
			return err
		}
		emitted.Add(1)
		return nil
	})

	var mu sync.Mutex
	keyToInstance := make(map[int64]int)
	violation := atomic.Bool{}
	j, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(idx int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *packet.Packet) error {
			k, _ := p.Int64("key")
			mu.Lock()
			if prev, ok := keyToInstance[k]; ok && prev != idx {
				violation.Store(true)
			}
			keyToInstance[k] = idx
			mu.Unlock()
			return nil
		})
	})
	runToCompletion(t, j)
	if violation.Load() {
		t.Fatal("a key visited two different instances")
	}
	if len(keyToInstance) != 17 {
		t.Fatalf("saw %d keys, want 17", len(keyToInstance))
	}
}

func TestBroadcastDeliversToAllInstances(t *testing.T) {
	const n, par = 500, 3
	spec := twoStageSpec(par)
	spec.Links[0].Partitioner = "broadcast"
	src := &countingSource{n: n}
	sinks := make([]*collectSink, par)
	j, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(i int) Processor {
		sinks[i] = newCollectSink()
		return sinks[i]
	})
	runToCompletion(t, j)
	for i, s := range sinks {
		if got := s.count.Load(); got != n {
			t.Fatalf("broadcast instance %d got %d, want %d", i, got, n)
		}
		s.exactlyOnce(t, n)
	}
}

func TestMultiEngineInproc(t *testing.T) {
	const n = 6_000
	cfg := testConfig()
	e1, err := NewEngine("node-1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine("node-2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{n: n, payload: 64}
	sink := newCollectSink()
	j, err := NewJob(relaySpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return src })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(int) Processor { return sink })
	// Paper's Fig. 1 deployment: sender+receiver on one resource, relay
	// on another machine.
	place := func(op string, idx int) int {
		if op == "relay" {
			return 1
		}
		return 0
	}
	if err := j.LaunchOn([]*Engine{e1, e2}, place, nil); err != nil {
		t.Fatal(err)
	}
	finishJob(t, j)
	sink.exactlyOnce(t, n)
	// Remote path actually used: bytes flowed out of both engines.
	if e1.Metrics().Counter("bytes_out").Value() == 0 || e2.Metrics().Counter("bytes_out").Value() == 0 {
		t.Fatal("remote path not exercised")
	}
}

func TestMultiEngineTCP(t *testing.T) {
	const n = 3_000
	cfg := testConfig()
	e1, _ := NewEngine("tcp-1", cfg)
	e2, _ := NewEngine("tcp-2", cfg)
	src := &countingSource{n: n, payload: 100}
	sink := newCollectSink()
	j, err := NewJob(relaySpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return src })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(int) Processor { return sink })
	place := func(op string, idx int) int {
		if op == "relay" {
			return 1
		}
		return 0
	}
	if err := j.LaunchOn([]*Engine{e1, e2}, place, NewTCPBridger(transport.TCPOptions{})); err != nil {
		t.Fatal(err)
	}
	finishJob(t, j)
	sink.exactlyOnce(t, n)
}

func TestCompressionEndToEnd(t *testing.T) {
	const n = 2_000
	cfg := testConfig()
	cfg.CompressionThreshold = 7.5 // compress low-entropy padding
	e1, _ := NewEngine("c-1", cfg)
	e2, _ := NewEngine("c-2", cfg)
	src := &countingSource{n: n, payload: 256} // zero padding: very low entropy
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	place := func(op string, idx int) int {
		if op == "sink" {
			return 1
		}
		return 0
	}
	if err := j.LaunchOn([]*Engine{e1, e2}, place, nil); err != nil {
		t.Fatal(err)
	}
	finishJob(t, j)
	sink.exactlyOnce(t, n)
	// Compression actually engaged: wire bytes far below payload bytes.
	bytesOut := e1.Metrics().Counter("bytes_out").Value()
	if bytesOut == 0 {
		t.Fatal("no remote traffic")
	}
	rawEstimate := uint64(n) * 256
	if bytesOut > rawEstimate/2 {
		t.Fatalf("compression ineffective: %d wire bytes for ~%d payload", bytesOut, rawEstimate)
	}
}

func TestBatchingDisabledStillCorrect(t *testing.T) {
	const n = 3_000
	cfg := testConfig()
	cfg.Batching = false
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	sink.exactlyOnce(t, n)
}

func TestBatchingReducesContextSwitches(t *testing.T) {
	// The Table I mechanism: per-message scheduling forces far more
	// scheduler events than batched scheduling for the same workload.
	run := func(batching bool) uint64 {
		const n = 20_000
		cfg := testConfig()
		cfg.Batching = batching
		cfg.BufferSize = 64 << 10
		src := &countingSource{n: n, perNext: 64}
		sink := newCollectSink()
		j, err := NewJob(twoStageSpec(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		j.SetSource("src", func(int) Source { return src })
		j.SetProcessor("sink", func(int) Processor { return sink })
		runToCompletion(t, j)
		sink.exactlyOnce(t, n)
		return j.Engines()[0].Resource().Switches().Switches()
	}
	batched := run(true)
	perMessage := run(false)
	if perMessage < batched*4 {
		t.Fatalf("per-message switches (%d) not clearly above batched (%d)", perMessage, batched)
	}
}

func TestPoolingReusesPackets(t *testing.T) {
	const n = 5_000
	cfg := testConfig()
	// Small inbound window forces the producer and consumer to overlap,
	// so recycled packets are available to subsequent Gets.
	cfg.InLowWatermark = 4 << 10
	cfg.InHighWatermark = 8 << 10
	cfg.BufferSize = 1024
	src := &countingSource{n: n, payload: 64}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	ps := j.Engines()[0].PacketPoolStats()
	if ps.HitRate() < 0.5 {
		t.Fatalf("pool hit rate %.2f too low: %+v", ps.HitRate(), ps)
	}
}

func TestBackpressureThrottlesSourceNoLoss(t *testing.T) {
	const n = 1_500
	cfg := testConfig()
	cfg.BufferSize = 512
	cfg.InLowWatermark = 1 << 10
	cfg.InHighWatermark = 2 << 10
	src := &countingSource{n: n, payload: 64}
	sink := newCollectSink()
	sink.delay = 50 * time.Microsecond
	j, err := NewJob(twoStageSpec(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	sink.exactlyOnce(t, n)
}

func TestProcessorErrorSurfacesOnStop(t *testing.T) {
	src := &countingSource{n: 100}
	boom := errors.New("boom")
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *packet.Packet) error {
			if v, _ := p.Int64("i"); v == 50 {
				return boom
			}
			return nil
		})
	})
	if err := j.Launch(); err != nil {
		t.Fatal(err)
	}
	j.WaitSources(10 * time.Second)
	err = j.Stop(10 * time.Second)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Stop = %v, want boom", err)
	}
	if j.OperatorCounter("sink", ".errors") != 1 {
		t.Fatalf("error counter = %d", j.OperatorCounter("sink", ".errors"))
	}
}

func TestSourceErrorSurfaces(t *testing.T) {
	bad := errors.New("ingest failed")
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error { return bad })
	})
	j.SetProcessor("sink", func(int) Processor { return newCollectSink() })
	if err := j.Launch(); err != nil {
		t.Fatal(err)
	}
	j.WaitSources(10 * time.Second)
	if err := j.Stop(10 * time.Second); !errors.Is(err, bad) {
		t.Fatalf("Stop = %v, want ingest error", err)
	}
}

func TestEmitUnknownLink(t *testing.T) {
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var emitErr atomic.Value
	j.SetSource("src", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			p := ctx.NewPacket()
			if err := ctx.Emit("nonexistent", p); err != nil {
				emitErr.Store(err)
			}
			return io.EOF
		})
	})
	j.SetProcessor("sink", func(int) Processor { return newCollectSink() })
	runToCompletion(t, j)
	if v := emitErr.Load(); v == nil || !errors.Is(v.(error), ErrUnknownLink) {
		t.Fatalf("emit error = %v", emitErr.Load())
	}
}

func TestEmitDefaultPanicsWithoutSingleLink(t *testing.T) {
	// A sink (zero out links) calling EmitDefault must panic; the panic
	// is recovered by Granules and surfaces as a task error.
	src := &countingSource{n: 1}
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *packet.Packet) error {
			return ctx.EmitDefault(ctx.NewPacket())
		})
	})
	if err := j.Launch(); err != nil {
		t.Fatal(err)
	}
	j.WaitSources(10 * time.Second)
	// The panic is recorded as a granules task error, not a crash.
	time.Sleep(50 * time.Millisecond)
	e := j.Engines()[0]
	if e.Metrics().Counter("task_errors").Value() == 0 && e.Resource().Metrics().Counter("task_errors").Value() == 0 {
		t.Fatal("EmitDefault misuse did not surface as a task error")
	}
	j.Stop(5 * time.Second)
}

func TestMissingFactory(t *testing.T) {
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return &countingSource{n: 1} })
	if err := j.Launch(); !errors.Is(err, ErrMissingFactory) {
		t.Fatalf("Launch = %v", err)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	bad := &graph.Spec{Operators: []graph.OperatorSpec{{Name: "p", Kind: graph.KindProcessor}}}
	if _, err := NewJob(bad, testConfig()); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InLowWatermark = 100
	cfg.InHighWatermark = 50
	if _, err := NewJob(twoStageSpec(1), cfg); !errors.Is(err, ErrBadWatermarks) {
		t.Fatalf("err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.CompressionThreshold = 9
	if _, err := NewJob(twoStageSpec(1), cfg); err == nil {
		t.Fatal("bad threshold accepted")
	}
}

func TestDoubleStopAndLaunch(t *testing.T) {
	src := &countingSource{n: 10}
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return newCollectSink() })
	if err := j.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := j.Launch(); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("second Launch = %v", err)
	}
	j.WaitSources(10 * time.Second)
	if err := j.Stop(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.Stop(time.Second); err != nil {
		t.Fatalf("second Stop = %v", err)
	}
}

func TestStopWithoutLaunch(t *testing.T) {
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Stop(time.Second); err != nil {
		t.Fatalf("Stop before Launch = %v", err)
	}
}

func TestStopInterruptsInfiniteSource(t *testing.T) {
	// An infinite source must stop promptly via the stopping flag.
	var sent atomic.Int64
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			p := ctx.NewPacket()
			p.AddInt64("i", sent.Add(1))
			return ctx.EmitDefault(p)
		})
	})
	sink := newCollectSink()
	j.SetProcessor("sink", func(int) Processor { return sink })
	if err := j.Launch(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.count.Load() < 1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- j.Stop(10 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Stop hung on infinite source")
	}
	// No loss: everything emitted was processed.
	if got, want := j.OperatorCounter("sink", ".processed"), j.OperatorCounter("src", ".emitted"); got != want {
		t.Fatalf("processed %d != emitted %d", got, want)
	}
}

func TestLatencySnapshotNonSink(t *testing.T) {
	j, err := NewJob(relaySpec(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return &countingSource{n: 10} })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(int) Processor { return newCollectSink() })
	runToCompletion(t, j)
	if snap := j.LatencySnapshot("relay"); snap.Count != 0 {
		t.Fatal("non-sink operator should have no latency snapshot")
	}
	if snap := j.LatencySnapshot("ghost"); snap.Count != 0 {
		t.Fatal("unknown operator should have no latency snapshot")
	}
}

func TestMultipleOutLinksEmitByName(t *testing.T) {
	spec := &graph.Spec{
		Name: "split",
		Operators: []graph.OperatorSpec{
			{Name: "src", Kind: graph.KindSource},
			{Name: "odd", Kind: graph.KindProcessor},
			{Name: "even", Kind: graph.KindProcessor},
		},
		Links: []graph.LinkSpec{
			{Name: "to-odd", From: "src", To: "odd"},
			{Name: "to-even", From: "src", To: "even"},
		},
	}
	spec.Normalize()
	const n = 1_000
	var i atomic.Int64
	j, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			v := i.Add(1) - 1
			if v >= n {
				return io.EOF
			}
			p := ctx.NewPacket()
			p.AddInt64("i", v)
			link := "to-even"
			if v%2 == 1 {
				link = "to-odd"
			}
			return ctx.Emit(link, p)
		})
	})
	odd, even := newCollectSink(), newCollectSink()
	j.SetProcessor("odd", func(int) Processor { return odd })
	j.SetProcessor("even", func(int) Processor { return even })
	runToCompletion(t, j)
	if odd.count.Load() != n/2 || even.count.Load() != n/2 {
		t.Fatalf("split counts: odd=%d even=%d", odd.count.Load(), even.count.Load())
	}
	odd.mu.Lock()
	for v := range odd.seen {
		if v%2 != 1 {
			t.Fatalf("even value %d on odd sink", v)
		}
	}
	odd.mu.Unlock()
}

func TestOpContextAccessors(t *testing.T) {
	spec := twoStageSpec(2)
	var checked atomic.Bool
	j, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return &countingSource{n: 100} })
	j.SetProcessor("sink", func(idx int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *packet.Packet) error {
			if ctx.Instance() != idx || ctx.Parallelism() != 2 || ctx.Operator() != "sink" {
				return fmt.Errorf("bad context: %d/%d/%s", ctx.Instance(), ctx.Parallelism(), ctx.Operator())
			}
			if ctx.Engine() == "" || ctx.NowNanos() == 0 || ctx.Metrics() == nil {
				return errors.New("bad context accessors")
			}
			checked.Store(true)
			return nil
		})
	})
	runToCompletion(t, j)
	if !checked.Load() {
		t.Fatal("processor never ran")
	}
}

func TestRecycleUnemittedPacket(t *testing.T) {
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	j.SetSource("src", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			if done.Load() {
				return io.EOF
			}
			scratch := ctx.NewPacket()
			ctx.Recycle(scratch) // decided not to emit
			p := ctx.NewPacket()
			p.AddInt64("i", 0)
			done.Store(true)
			return ctx.EmitDefault(p)
		})
	})
	sink := newCollectSink()
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	if sink.count.Load() != 1 {
		t.Fatalf("count = %d", sink.count.Load())
	}
}

// keyedRelaySpec is the Fig. 1 relay with par parallel relay/receiver
// instances, keyed so every packet of a key stays on one instance.
func keyedRelaySpec(par int) *graph.Spec {
	s := &graph.Spec{
		Name: "keyed-relay",
		Operators: []graph.OperatorSpec{
			{Name: "sender", Kind: graph.KindSource},
			{Name: "relay", Kind: graph.KindProcessor, Parallelism: par},
			{Name: "receiver", Kind: graph.KindProcessor, Parallelism: par},
		},
		Links: []graph.LinkSpec{
			{From: "sender", To: "relay", Partitioner: "fields:i"},
			{From: "relay", To: "receiver", Partitioner: "fields:i"},
		},
	}
	s.Normalize()
	return s
}

// TestKeyedParallelRelayExactlyOnce runs the keyed parallel relay: four
// relay/receiver instances share the engine's resource and pools, and
// delivery must still be exactly-once across the whole job.
func TestKeyedParallelRelayExactlyOnce(t *testing.T) {
	const n, par = 12_000, 4
	cfg := testConfig()
	src := &countingSource{n: n}
	sinks := make([]*collectSink, par)
	j, err := NewJob(keyedRelaySpec(par), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return src })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(i int) Processor {
		sinks[i] = newCollectSink()
		return sinks[i]
	})
	runToCompletion(t, j)
	all := newCollectSink()
	var total int64
	for i, s := range sinks {
		c := s.count.Load()
		if c == 0 {
			t.Fatalf("receiver instance %d processed nothing", i)
		}
		total += c
		s.mu.Lock()
		for v, cnt := range s.seen {
			all.seen[v] += cnt
		}
		s.mu.Unlock()
	}
	if total != n {
		t.Fatalf("total processed %d, want %d", total, n)
	}
	all.exactlyOnce(t, n)
}

// TestKeyedParallelMultiEngineRemote drives the keyed parallel relay over
// the remote (in-process transport) path, exercising the owned zero-copy
// flush from the engines' buffer pools end to end.
func TestKeyedParallelMultiEngineRemote(t *testing.T) {
	const n, par = 6_000, 2
	cfg := testConfig()
	e1, err := NewEngine("keyed-1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine("keyed-2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{n: n, payload: 64}
	sinks := make([]*collectSink, par)
	j, err := NewJob(keyedRelaySpec(par), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return src })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(i int) Processor {
		sinks[i] = newCollectSink()
		return sinks[i]
	})
	place := func(op string, _ int) int {
		if op == "relay" {
			return 1
		}
		return 0
	}
	if err := j.LaunchOn([]*Engine{e1, e2}, place, nil); err != nil {
		t.Fatal(err)
	}
	finishJob(t, j)
	var total int64
	for _, s := range sinks {
		total += s.count.Load()
	}
	if total != n {
		t.Fatalf("total processed %d, want %d", total, n)
	}
	if e1.Metrics().Counter("bytes_out").Value() == 0 || e2.Metrics().Counter("bytes_out").Value() == 0 {
		t.Fatal("remote path not exercised")
	}
}
