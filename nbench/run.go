package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/transport"
)

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
}

const (
	// warmup runs before measuring so pools fill, lazy set-up finishes and
	// the QoS controller settles.
	warmup = 2 * time.Second
	// setupReps is how many extra times a run sets the job up (and tears
	// it down) to report the median set-up time.
	setupReps = 40
	// window is the width of the windows over which rates and per-packet
	// costs are computed and reported as a median.
	window = time.Second
	// latWindow is the width of the latency windows whose percentiles are
	// reported as a median. A quarter second keeps one GC cycle or host
	// hiccup from lifting most windows' tails.
	latWindow = 250 * time.Millisecond
	// stopTimeout bounds the drain at the end of a run.
	stopTimeout = 60 * time.Second
)

func nowNs() int64 { return time.Now().UnixNano() }

// pipeline is one launch of a workload's job plus everything the
// benchmark observes about it.
type pipeline struct {
	w      *workload
	rc     runConfig
	gen    generator
	idle   bool // sources end at once: set-up timing only
	tr     *tracer
	names  spanNames
	stop   atomic.Bool
	pace   *pacer // open loops only
	nextIn uint64 // closed loop's next input index (source goroutine only)

	// end is when an open loop's schedule ends: the source emits every
	// packet due before it, however late, then ends.
	end      atomic.Int64
	accepted atomic.Uint64 // EmitDefault returned nil
	lat      *windows      // end-to-end latency (ns) by emit/due time
	late     *windows      // generator lateness (ns) by due time; open loops only

	mu    sync.Mutex // guards sinks and mids while factories run
	sinks []*sinkState
	mids  []midLogic

	job     *core.Job
	engines []*core.Engine
}

type sinkState struct {
	chk       *checker
	delivered atomic.Uint64
}

func newPipeline(w *workload, rc runConfig, idle bool) *pipeline {
	pl := &pipeline{w: w, rc: rc, gen: w.newGen(rc.seed), idle: idle, names: w.spans()}
	pl.end.Store(math.MaxInt64)
	if idle {
		return pl // sends nothing, so measures nothing
	}
	n := rc.seconds * int(time.Second/latWindow)
	// Latency is resolved to 0.2%, so that a steady run's figures still
	// differ between runs; generator lateness, a per-layer figure, to 1.6%.
	pl.lat = newWindows(n, int64(latWindow), 512)
	if w.rate > 0 {
		pl.late = newWindows(n, int64(latWindow), 64)
	}
	if rc.trace {
		pl.tr = &tracer{}
	}
	return pl
}

// launch creates the engines and the job and deploys it.
func (pl *pipeline) launch() error {
	cfg := pl.w.config()
	a, err := core.NewEngine("A", cfg)
	if err != nil {
		return err
	}
	b, err := core.NewEngine("B", cfg)
	if err != nil {
		return err
	}
	src, mid, sink := pl.w.ops[0], pl.w.ops[1], pl.w.ops[2]
	spec := &graph.Spec{
		Name: pl.w.name,
		Operators: []graph.OperatorSpec{
			{Name: src, Kind: graph.KindSource, Parallelism: 1},
			{Name: mid, Kind: graph.KindProcessor, Parallelism: pl.w.par},
			{Name: sink, Kind: graph.KindProcessor, Parallelism: pl.w.par},
		},
		Links: []graph.LinkSpec{
			{From: src, To: mid, Partitioner: pl.w.partition},
			{From: mid, To: sink, Partitioner: pl.w.partition},
		},
	}
	job, err := core.NewJob(spec, cfg)
	if err != nil {
		return err
	}
	job.SetSource(src, func(int) core.Source { return core.SourceFunc(pl.next) })
	job.SetProcessor(mid, func(int) core.Processor {
		m := pl.w.newMid()
		pl.mu.Lock()
		pl.mids = append(pl.mids, m)
		pl.mu.Unlock()
		return core.ProcessorFunc(func(ctx *core.OpContext, p *packet.Packet) error {
			return pl.processMid(ctx, m, p)
		})
	})
	job.SetProcessor(sink, func(int) core.Processor {
		s := &sinkState{chk: newChecker(pl.gen.keys())}
		pl.mu.Lock()
		pl.sinks = append(pl.sinks, s)
		pl.mu.Unlock()
		return core.ProcessorFunc(func(_ *core.OpContext, p *packet.Packet) error {
			pl.processSink(s, p)
			return nil
		})
	})
	var bridger core.Bridger
	if pl.w.tcp {
		bridger = core.NewResilientTCPBridger(transport.ResilientOptions{})
	}
	place := func(op string, _ int) int {
		if op == mid {
			return 1
		}
		return 0
	}
	if pl.w.rate > 0 {
		pl.pace = &pacer{
			sched: schedule{start: nowNs(), rate: pl.w.rate},
			now:   nowNs,
			sleep: time.Sleep,
			late:  pl.late,
		}
	}
	pl.engines = []*core.Engine{a, b}
	if err := job.LaunchOn(pl.engines, place, bridger); err != nil {
		return err
	}
	pl.job = job
	return nil
}

// next is the source: one input per call, paced by the schedule in an
// open loop, as fast as backpressure admits in a closed one.
func (pl *pipeline) next(ctx *core.OpContext) error {
	if pl.idle || pl.stop.Load() {
		return io.EOF
	}
	var i uint64
	var due int64
	if pl.pace != nil {
		if pl.pace.sched.due(pl.pace.next) >= pl.end.Load() {
			return io.EOF
		}
		i, due = pl.pace.wait()
	} else {
		i = pl.nextIn
		pl.nextIn++
	}
	traced := pl.tr != nil && i%pl.w.traceEvery == 0
	var sid, eid int32
	if traced {
		sid = pl.tr.begin("source.next", i, -1, nowNs())
	}
	p := ctx.NewPacket()
	pl.gen.fill(p, i, traced)
	p.EmitNanos = due // zero in a closed loop: the engine stamps it
	var err error
	if traced {
		t := nowNs()
		putStamp(pl.gen.slot(p), t, sid)
		eid = pl.tr.begin("core.emit", i, sid, t)
		err = ctx.EmitDefault(p)
		t = nowNs()
		pl.tr.end(eid, t)
		pl.tr.end(sid, t)
	} else {
		err = ctx.EmitDefault(p)
	}
	if err != nil {
		if pl.stop.Load() {
			return io.EOF // the job is stopping: not a loss
		}
		return err
	}
	pl.accepted.Add(1)
	return nil
}

func putStamp(slot []byte, t int64, parent int32) {
	binary.LittleEndian.PutUint64(slot[:8], uint64(t))
	binary.LittleEndian.PutUint64(slot[8:16], uint64(parent))
}

func getStamp(slot []byte) (int64, int32) {
	return int64(binary.LittleEndian.Uint64(slot[:8])), int32(binary.LittleEndian.Uint64(slot[8:16]))
}

// traceID returns a sampled packet's input index, or false.
func (pl *pipeline) traceID(p *packet.Packet) (uint64, bool) {
	if pl.tr == nil {
		return 0, false
	}
	i, ok := pl.gen.read(p)
	return i, ok && i%pl.w.traceEvery == 0
}

func (pl *pipeline) processMid(ctx *core.OpContext, m midLogic, p *packet.Packet) error {
	i, traced := pl.traceID(p)
	if !traced {
		if err := m.process(p); err != nil {
			return err
		}
		return ctx.EmitDefault(p)
	}
	t := nowNs()
	slot := pl.gen.slot(p)
	sent, parent := getStamp(slot)
	hop := pl.tr.add(pl.names.hop1, i, parent, sent, t)
	pid := pl.tr.begin(pl.names.mid, i, hop, t)
	if err := m.process(p); err != nil {
		return err
	}
	t = nowNs()
	putStamp(slot, t, pid)
	eid := pl.tr.begin("core.emit", i, pid, t)
	err := ctx.EmitDefault(p)
	t = nowNs()
	pl.tr.end(eid, t)
	pl.tr.end(pid, t)
	return err
}

func (pl *pipeline) processSink(s *sinkState, p *packet.Packet) {
	i, ok := pl.gen.read(p)
	if !ok {
		s.chk.wrong++
		s.delivered.Add(1)
		return
	}
	if pl.w.rate == 0 && i&(pl.w.latEvery-1) != 0 {
		pl.observe(s, i)
		return
	}
	t := nowNs()
	pl.lat.record(p.EmitNanos, t-p.EmitNanos)
	if pl.tr == nil || i%pl.w.traceEvery != 0 {
		pl.observe(s, i)
		return
	}
	sent, parent := getStamp(pl.gen.slot(p))
	hop := pl.tr.add(pl.names.hop2, i, parent, sent, t)
	pl.observe(s, i)
	pl.tr.add(pl.names.sink, i, hop, t, nowNs())
}

func (pl *pipeline) observe(s *sinkState, i uint64) {
	key, seq := pl.gen.keySeq(i)
	s.chk.observe(key, seq)
	s.delivered.Add(1)
}

func (pl *pipeline) delivered() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var n uint64
	for _, s := range pl.sinks {
		n += s.delivered.Load()
	}
	return n
}

// checkOutputs compares what the sinks saw with what the sources
// accepted and, on sensor-tcp, every machine's actuations with a
// single-threaded monitor over the same readings.
func (pl *pipeline) checkOutputs() failures {
	n := pl.accepted.Load()
	accepted := make([]uint64, pl.gen.keys())
	for k := range accepted {
		// Inputs are dealt to keys round-robin.
		accepted[k] = n / uint64(len(accepted))
		if uint64(k) < n%uint64(len(accepted)) {
			accepted[k]++
		}
	}
	f := tally(checkers(pl.sinks), accepted)
	if _, ok := pl.gen.(*sensorGen); ok {
		mons := make([]*monitorMid, len(pl.mids))
		for i, m := range pl.mids {
			mons[i] = m.(*monitorMid)
		}
		f.wrong += actuationMismatches(pl.rc.seed, mons, accepted)
	}
	return f
}

func checkers(ss []*sinkState) []*checker {
	cs := make([]*checker, len(ss))
	for i, s := range ss {
		cs[i] = s.chk
	}
	return cs
}

// snapshot is the process and engine state at one instant of a run.
type snapshot struct {
	at         time.Time
	delivered  uint64
	cpuNs      int64
	allocBytes uint64
	numGC      uint64
	gcCPU      float64 // cumulative GC CPU seconds
	bytesOut   uint64
	batchesOut uint64
	framesIn   uint64
	switches   uint64
	processed  [2]uint64 // mid, sink
	batches    [2]uint64
	flow       core.FlowHealth
}

func (pl *pipeline) snapshot() snapshot {
	s := snapshot{at: time.Now(), delivered: pl.delivered(), cpuNs: processCPU()}
	s.allocBytes, s.numGC, s.gcCPU = readRuntime()
	for _, e := range pl.engines {
		reg := e.Metrics()
		s.bytesOut += reg.Counter("bytes_out").Value()
		s.batchesOut += reg.Counter("batches_out").Value()
		s.framesIn += reg.Counter("frames_in").Value()
		s.switches += e.ContextSwitches()
	}
	for k, op := range pl.w.ops[1:] {
		s.processed[k] = pl.job.OperatorCounter(op, ".processed")
		s.batches[k] = pl.job.OperatorCounter(op, ".batches")
	}
	s.flow = pl.job.FlowHealth()
	return s
}

// readRuntime returns the bytes allocated on the heap, the GC cycles
// completed and the CPU seconds spent in GC, all since the process began.
func readRuntime() (allocBytes, numGC uint64, gcCPU float64) {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Float64()
}

// processCPU is the process's user+system CPU time so far.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measurement is what a run measured.
type measurement struct {
	w          *workload
	seconds    float64
	a, b       snapshot   // at the start and end of the measured window
	snaps      []snapshot // at every window boundary
	rss        []uint64   // per window, the highest RSS sampled
	setup      []float64  // seconds per launch
	fail       failures
	attempted  uint64
	lat, late  *windows
	sinks      []uint64 // delivered per sink instance
	links      []transport.LinkHealth
	qos        core.LatencyHealth
	pool       float64 // packet pool hit rate over both engines
	journalMax int
	spans      []span
}

// runWorkload sets the job up setupReps times, then runs it once: warm-up,
// a measured window of rc.seconds, drain, output checks.
func runWorkload(w *workload, rc runConfig) (result, error) {
	m := &measurement{w: w, seconds: float64(rc.seconds)}
	for k := 0; k < setupReps; k++ {
		pl := newPipeline(w, rc, true)
		runtime.GC() // start every set-up from the same heap state
		t0 := time.Now()
		if err := pl.launch(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if err := pl.job.Stop(stopTimeout); err != nil {
			return result{}, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	pl := newPipeline(w, rc, false)
	runtime.GC()
	t0 := time.Now()
	if err := pl.launch(); err != nil {
		return result{}, fmt.Errorf("launch: %w", err)
	}
	m.setup = append(m.setup, time.Since(t0).Seconds())
	start := t0.Add(warmup)
	pl.end.Store(start.Add(time.Duration(rc.seconds) * time.Second).UnixNano())
	pl.lat.arm(start.UnixNano())
	if pl.late != nil {
		pl.late.arm(start.UnixNano())
	}

	n := rc.seconds * int(time.Second/window)
	smp := startSampler(pl.job, start, n)
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
		m.snaps = append(m.snaps, pl.snapshot())
	}
	m.a, m.b = m.snaps[0], m.snaps[n]
	m.seconds = m.b.at.Sub(m.a.at).Seconds()
	if pl.pace != nil {
		// A lagging open loop still owes the packets due in the window.
		pl.job.WaitSources(stopTimeout)
	}
	pl.stop.Store(true)
	m.qos = pl.job.LatencyHealth()
	m.links = pl.job.LinkHealth()
	m.rss, m.journalMax = smp.stop()
	m.pool = poolHitRate(pl.engines)
	if err := pl.job.Stop(stopTimeout); err != nil {
		return result{}, fmt.Errorf("job: %w", err)
	}
	m.fail = pl.checkOutputs()
	m.attempted = pl.accepted.Load()
	m.lat, m.late = pl.lat, pl.late
	for _, s := range pl.sinks {
		m.sinks = append(m.sinks, s.delivered.Load())
	}
	fmt.Fprintf(os.Stderr, "nbench: accepted=%d lost=%d dup=%d ooo=%d wrong=%d\n",
		m.attempted, m.fail.lost, m.fail.dup, m.fail.ooo, m.fail.wrong)
	res := result{
		Correct:   m.fail.total() == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.fail.total(),
	}
	if m.attempted == 0 {
		res.Attempted = 1 // nothing was sent: report one failed attempt
		res.Failed = 1
	}
	var err error
	if rc.trace {
		m.spans = pl.tr.snapshot()
		res.Metrics, err = layerMetrics(m, rc)
	} else {
		res.Metrics, err = endToEnd(m)
	}
	if err != nil {
		return result{}, err
	}
	return res, nil
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return stats.Quantile(xs, 0.5)
}

func poolHitRate(es []*core.Engine) float64 {
	var gets, hits uint64
	for _, e := range es {
		st := e.PacketPoolStats()
		gets += st.Gets
		hits += st.Hits
	}
	if gets == 0 {
		return 0
	}
	return float64(hits) / float64(gets)
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(m *measurement) (map[string]metric, error) {
	p50, err := m.lat.median(0.5)
	if err != nil {
		return nil, fmt.Errorf("latency p50: %w", err)
	}
	p99, err := m.lat.median(0.99)
	if err != nil {
		return nil, fmt.Errorf("latency p99: %w", err)
	}
	setup := append([]float64(nil), m.setup...)
	var tput, cpu, alloc, wire []float64
	for k := 1; k < len(m.snaps); k++ {
		a, b := m.snaps[k-1], m.snaps[k]
		d := float64(b.delivered - a.delivered)
		if d == 0 {
			return nil, fmt.Errorf("window %d delivered nothing", k)
		}
		tput = append(tput, d/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, float64(b.cpuNs-a.cpuNs)/d/1e3)
		alloc = append(alloc, float64(b.allocBytes-a.allocBytes)/d)
		wire = append(wire, float64(b.bytesOut-a.bytesOut)/d)
	}
	rss := make([]float64, len(m.rss))
	for k, v := range m.rss {
		rss[k] = float64(v) / (1 << 20)
	}
	out := map[string]metric{
		"setup_s":             {median(setup), "s"},
		"throughput_pps":      {median(tput), "pkt/s"},
		"latency_p50_ms":      {p50 / 1e6, "ms"},
		"latency_p99_ms":      {p99 / 1e6, "ms"},
		"cpu_us_per_pkt":      {median(cpu), "us"},
		"alloc_bytes_per_pkt": {median(alloc), "B"},
		"peak_rss_mb":         {median(rss), "MiB"},
		"wire_bytes_per_pkt":  {median(wire), "B"},
	}
	for n, v := range out {
		if !(v.Value > 0) {
			return nil, fmt.Errorf("metric %s is %v: nothing measured", n, v.Value)
		}
	}
	return out, nil
}

// sampler watches the process while the run measures: the highest RSS in
// each window, and the largest replay-journal occupancy on any resilient
// link.
type sampler struct {
	done chan struct{}
	out  chan sampled
}

type sampled struct {
	rss     []uint64
	journal int
}

// sampleEvery is the sampler's period.
const sampleEvery = 50 * time.Millisecond

func startSampler(job *core.Job, start time.Time, windows int) *sampler {
	s := &sampler{done: make(chan struct{}), out: make(chan sampled, 1)}
	go func() {
		res := sampled{rss: make([]uint64, windows)}
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			now := time.Now()
			if k := int(now.Sub(start) / window); now.After(start) && k < windows {
				res.rss[k] = max(res.rss[k], residentBytes())
			}
			for _, h := range job.LinkHealth() {
				res.journal = max(res.journal, h.ReplayFrames)
			}
			select {
			case <-s.done:
				s.out <- res
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it, and returns what it saw.
func (s *sampler) stop() ([]uint64, int) {
	close(s.done)
	res := <-s.out
	return res.rss, res.journal
}

// residentBytes is the process's current resident set size.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// traceDir is where traced runs write their spans: the build directory
// the benchmark's launcher uses, inside the checkout.
func traceDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Join(d, "traces")
}
