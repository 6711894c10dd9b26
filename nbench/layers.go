package main

import (
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/backpressure"
	"repro/internal/buffer"
	"repro/internal/compression"
	"repro/internal/core"
	"repro/internal/granules"
	"repro/internal/packet"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/transport"
)

// replayBudget is how long each replay repeats its calls.
const replayBudget = 150 * time.Millisecond

// replayInputs is how many of the workload's own inputs the replays feed
// through each layer.
const replayInputs = 4096

// layerMetrics computes the traced run's per-layer metrics: the ones the
// run's own counters and spans give, then the replays'.
func layerMetrics(m *measurement, rc runConfig) (map[string]metric, error) {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	secs := m.seconds
	delivered := float64(m.b.delivered - m.a.delivered)

	// core: the spans recorded around emits, hops and processing.
	self := selfTimes(m.spans)
	dur := byName(m.spans, durations(m.spans))
	selfBy := byName(m.spans, self)
	sn := m.w.spans()
	put("core.emit_ns_p50", quantileOf(dur["core.emit"], 0.5), "ns")
	put("core.emit_ns_p99", quantileOf(dur["core.emit"], 0.99), "ns")
	put("core.process_ns.mid", quantileOf(dur[sn.mid], 0.5), "ns")
	put("core.process_ns.sink", quantileOf(dur[sn.sink], 0.5), "ns")
	put("core.self_ns.source", quantileOf(selfBy["source.next"], 0.5), "ns")
	put("core.self_ns.mid", quantileOf(selfBy[sn.mid], 0.5), "ns")
	for hop, name := range map[string]string{"hop1": sn.hop1, "hop2": sn.hop2} {
		put("core.hop_us_p50."+hop, quantileOf(dur[name], 0.5)/1e3, "us")
		put("core.hop_us_p99."+hop, quantileOf(dur[name], 0.99)/1e3, "us")
	}
	put("core.key_skew", skew(m.sinks), "ratio")
	path := quantileOf(dur[sn.hop1], 0.5) + quantileOf(dur[sn.mid], 0.5) +
		quantileOf(dur[sn.hop2], 0.5) + quantileOf(dur[sn.sink], 0.5)
	put("trace.path_ms_p50", path/1e6, "ms")

	// buffer, granules, backpressure, transport, pool, qos and runtime
	// counters over the measured window.
	batchesOut := float64(m.b.batchesOut - m.a.batchesOut)
	put("buffer.flush_bytes", ratio(float64(m.b.bytesOut-m.a.bytesOut), batchesOut), "B")
	put("buffer.flushes_per_s", batchesOut/secs, "1/s")
	for k, op := range []string{"mid", "sink"} {
		put("granules.batch_pkts."+op, ratio(float64(m.b.processed[k]-m.a.processed[k]), float64(m.b.batches[k]-m.a.batches[k])), "pkt")
	}
	put("granules.switches_per_kpkt", ratio(float64(m.b.switches-m.a.switches)*1000, delivered), "count")
	put("backpressure.blocked_share", float64(m.b.flow.InboundBlockedNs-m.a.flow.InboundBlockedNs)/(secs*1e9), "ratio")
	put("backpressure.gate_closures", float64(m.b.flow.InboundGateClosures+m.b.flow.OutboundGateClosures-
		m.a.flow.InboundGateClosures-m.a.flow.OutboundGateClosures), "count")
	put("transport.frames_per_s", float64(m.b.framesIn-m.a.framesIn)/secs, "1/s")
	var reconnects, redelivered uint64
	for _, h := range m.links {
		reconnects += h.Reconnects
		redelivered += h.Redelivered
	}
	put("transport.reconnects", float64(reconnects), "count")
	put("transport.redelivered", float64(redelivered), "count")
	put("transport.journal_frames_max", float64(m.journalMax), "count")
	put("pool.hit_rate", m.pool, "ratio")
	put("qos.escalations", float64(m.qos.Escalations), "count")
	put("qos.relaxations", float64(m.qos.Relaxations), "count")
	put("qos.chained_links", float64(m.qos.ChainedLinks), "count")
	put("qos.chain_share", ratio(float64(m.qos.ChainDelivered), float64(m.attempted)), "ratio")
	put("qos.flip_failures", float64(m.qos.FlipFailures), "count")
	put("runtime.gc_cpu_share", ratio(m.b.gcCPU-m.a.gcCPU, float64(m.b.cpuNs-m.a.cpuNs)/1e9), "ratio")
	put("runtime.gc_per_s", float64(m.b.numGC-m.a.numGC)/secs, "1/s")
	if m.w.rate > 0 {
		p50, err := m.late.median(0.5)
		if err != nil {
			return nil, fmt.Errorf("generator lateness: %w", err)
		}
		p99, err := m.late.median(0.99)
		if err != nil {
			return nil, fmt.Errorf("generator lateness: %w", err)
		}
		put("source.late_us_p50", p50/1e3, "us")
		put("source.late_us_p99", p99/1e3, "us")
	} else {
		put("source.late_us_p50", 0, "us")
		put("source.late_us_p99", 0, "us")
	}

	// The traced run's own end-to-end figures: the tracing overhead is
	// these minus the untraced runs' (compare mode prints it).
	e2e, err := endToEnd(m)
	if err != nil {
		return nil, err
	}
	for _, n := range []string{"throughput_pps", "cpu_us_per_pkt", "latency_p50_ms", "latency_p99_ms"} {
		put("trace."+n, e2e[n].Value, e2e[n].Unit)
	}

	// Replays: the workload's own seeded packets and frames fed
	// through each layer's exported functions, every call spanned.
	rp := &replayer{tr: &tracer{}, cfg: m.w.config()}
	// Every packet is flushed once on each of the two links.
	if err := rp.run(m.w, rc.seed, ratio(2*delivered, batchesOut), put); err != nil {
		return nil, err
	}
	put("trace.spans", float64(len(m.spans)+len(rp.tr.spans)), "count")

	all := append(m.spans, rp.tr.snapshot()...)
	file := filepath.Join(traceDir(), fmt.Sprintf("%s-seed%d.jsonl", m.w.name, rc.seed))
	if err := writeSpans(file, all, selfTimes(all)); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "nbench: %d spans written to %s\n", len(all), file)
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// skew is the busiest sink instance's share over the mean share.
func skew(counts []uint64) float64 {
	var sum, hi uint64
	for _, c := range counts {
		sum += c
		hi = max(hi, c)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) * float64(len(counts)) / float64(sum)
}

// replayer feeds the workload's inputs through each layer's exported
// functions and spans every call.
type replayer struct {
	tr  *tracer
	cfg core.Config
}

// repeat calls f until the budget is spent (at least once), spanning each
// call, and returns the mean nanoseconds per item (f handles items items
// per call).
func (r *replayer) repeat(name string, items int, f func()) float64 {
	deadline := nowNs() + int64(replayBudget)
	var total int64
	calls := 0
	for calls == 0 || nowNs() < deadline {
		t0 := nowNs()
		f()
		t1 := nowNs()
		r.tr.add(name, uint64(calls), -1, t0, t1)
		total += t1 - t0
		calls++
	}
	return float64(total) / float64(calls*items)
}

// sink keeps the replayed calls' results alive.
var sink float64

func (r *replayer) run(w *workload, seed int64, flushPkts float64, put func(string, float64, string)) error {
	// The inputs, stamped the way the engine stamps them.
	src := w.newGen(seed)
	pkts := make([]*packet.Packet, replayInputs)
	start := nowNs()
	for i := range pkts {
		p := &packet.Packet{}
		src.fill(p, uint64(i), false)
		p.StreamID, p.Seq, p.EmitNanos = 1, uint64(i), start+int64(i)*1000
		pkts[i] = p
	}
	var enc packet.Encoder
	perPkt := float64(len(enc.EncodeBatch(nil, pkts))) / float64(len(pkts))
	// Batches as large as the run's mean flush.
	size := max(1, min(int(flushPkts+0.5), len(pkts)))
	var batches [][]*packet.Packet
	for lo := 0; lo < len(pkts); lo += size {
		batches = append(batches, pkts[lo:min(lo+size, len(pkts))])
	}
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		frames[i] = enc.EncodeBatch(nil, b)
	}
	n := len(pkts)

	// packet
	var encoded []byte
	put("packet.encode_ns_per_pkt", r.repeat("packet.encode", n, func() {
		for _, b := range batches {
			encoded = enc.EncodeBatch(encoded[:0], b)
		}
	}), "ns")
	put("packet.wiresize_ns", r.repeat("packet.wiresize", n, func() {
		for _, p := range pkts {
			sink += float64(p.WireSize())
		}
	}), "ns")
	put("packet.bytes_per_pkt", perPkt, "B")
	pp := pool.NewPacketPool(r.cfg.PoolCapacity, true)
	var dec packet.Decoder
	var decoded []*packet.Packet
	var decErr error
	decode := func() {
		for _, f := range frames {
			var err error
			decoded, _, err = dec.DecodeBatchAppend(f, pp.GetBatch, decoded[:0])
			if err != nil {
				decErr = err
			}
			pp.PutBatch(decoded)
		}
	}
	decode() // fill the pool first
	objs0 := heapObjects()
	decode()
	put("packet.decode_allocs_per_pkt", float64(heapObjects()-objs0)/float64(n), "count")
	put("packet.decode_ns_per_pkt", r.repeat("packet.decode", n, decode), "ns")
	if decErr != nil {
		return fmt.Errorf("replay decode: %w", decErr)
	}

	// compression, with the workload's own entropy threshold.
	var kb float64
	for _, f := range frames {
		kb += float64(len(f)) / 1024
	}
	perKB := func(ns float64) float64 { return ns * float64(n) / kb }
	put("compression.entropy_ns_per_kb", perKB(r.repeat("compression.entropy", n, func() {
		for _, f := range frames {
			sink += compression.Entropy(f)
		}
	})), "ns")
	sel := &compression.Selective{Threshold: r.cfg.CompressionThreshold}
	wire := make([][]byte, len(frames))
	var rawBytes, wireBytes int
	for i, f := range frames {
		wire[i] = sel.Encode(nil, f)
		rawBytes += len(f)
		wireBytes += len(wire[i])
	}
	put("compression.ratio", float64(wireBytes)/float64(rawBytes), "ratio")
	put("compression.compressed_share", ratio(float64(sel.CompressedCount), float64(sel.CompressedCount+sel.RawCount)), "ratio")
	put("compression.encode_ns_per_kb", perKB(r.repeat("compression.encode", n, func() {
		for _, f := range frames {
			encoded = sel.Encode(encoded[:0], f)
		}
	})), "ns")
	var unpackErr error
	put("compression.decode_ns_per_kb", perKB(r.repeat("compression.decode", n, func() {
		for _, f := range wire {
			var err error
			if encoded, err = sel.Decode(encoded[:0], f, 0); err != nil {
				unpackErr = err
			}
		}
	})), "ns")
	if unpackErr != nil {
		return fmt.Errorf("replay decompress: %w", unpackErr)
	}

	// buffer: capacity batching with a no-op flusher and no timer.
	buf := buffer.New(r.cfg.BufferSize, 0, func([]*packet.Packet, int, buffer.FlushReason) {})
	var addErr error
	put("buffer.add_ns_per_pkt", r.repeat("buffer.add", n, func() {
		for _, b := range batches {
			if _, err := buf.AddBatch(b); err != nil {
				addErr = err
			}
		}
	}), "ns")
	buf.Close()
	if addErr != nil {
		return fmt.Errorf("replay buffer: %w", addErr)
	}

	// pool
	var got []*packet.Packet
	put("pool.getput_ns_per_pkt", r.repeat("pool.getput", n, func() {
		for _, b := range batches {
			got = pp.GetBatch(got[:0], len(b))
			pp.PutBatch(got)
		}
	}), "ns")

	// backpressure: one valve admission and release per frame.
	valve, err := backpressure.NewValve(r.cfg.InLowWatermark, r.cfg.InHighWatermark)
	if err != nil {
		return err
	}
	var valveErr error
	const valveOps = 1024 // per call, cycling over the frames
	put("backpressure.valve_ns", r.repeat("backpressure.valve", valveOps, func() {
		for k := 0; k < valveOps; k++ {
			n := int64(len(frames[k%len(frames)]))
			if err := valve.Acquire(n); err != nil {
				valveErr = err
			}
			valve.Release(n)
		}
	}), "ns")
	valve.Close()
	if valveErr != nil {
		return fmt.Errorf("replay valve: %w", valveErr)
	}

	if err := r.transport(w, wire, put); err != nil {
		return err
	}
	return r.wake(put)
}

// transport sends the workload's wire frames through the workload's own
// kind of link to a counting handler and times each Send.
func (r *replayer) transport(w *workload, wire [][]byte, put func(string, float64, string)) error {
	var got atomic.Int64
	handler := func(transport.Frame) { got.Add(1) }
	var tr transport.Transport
	var closeAll func() error
	if w.tcp {
		ln, err := transport.ListenResilient("127.0.0.1:0", handler, transport.ResilientOptions{})
		if err != nil {
			return fmt.Errorf("replay listen: %w", err)
		}
		d, err := transport.DialResilient(ln.Addr(), nil, transport.ResilientOptions{})
		if err != nil {
			ln.Close()
			return fmt.Errorf("replay dial: %w", err)
		}
		tr = d
		closeAll = func() error {
			err := d.Close()
			if lerr := ln.Close(); err == nil {
				err = lerr
			}
			return err
		}
	} else {
		in, err := transport.NewInproc(handler, r.cfg.OutLowWatermark, r.cfg.OutHighWatermark)
		if err != nil {
			return err
		}
		tr, closeAll = in, in.Close
	}
	var sent int64
	var sendErr error
	ns := r.repeat("transport.send", len(wire), func() {
		for _, f := range wire {
			if err := tr.Send(1, f); err != nil {
				sendErr = err
			}
			sent++
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	delivered := got.Load()
	if err := closeAll(); err != nil && sendErr == nil {
		sendErr = err
	}
	if sendErr != nil {
		return fmt.Errorf("replay send: %w", sendErr)
	}
	if delivered < sent {
		return fmt.Errorf("replay send: %d of %d frames delivered", delivered, sent)
	}
	put("transport.send_ns_per_frame", ns, "ns")
	return nil
}

// wakeTask reports the time each of its executions began.
type wakeTask struct{ ran chan int64 }

func (t *wakeTask) ID() string                            { return "wake" }
func (t *wakeTask) Init(*granules.RunContext) error       { return nil }
func (t *wakeTask) Close() error                          { return nil }
func (t *wakeTask) Execute(rc *granules.RunContext) error { t.ran <- nowNs(); return nil }

// wake times a Granules resource from a data notification to the start of
// the task's execution.
func (r *replayer) wake(put func(string, float64, string)) error {
	res := granules.NewResource("wake", 1)
	task := &wakeTask{ran: make(chan int64, 1)}
	if err := res.Register(task, granules.DataDriven{}); err != nil {
		return err
	}
	if err := res.Deploy(); err != nil {
		return err
	}
	var lat []float64
	deadline := nowNs() + int64(replayBudget)
	for len(lat) < 1000 || (nowNs() < deadline && len(lat) < 2000) {
		t0 := nowNs()
		if err := res.NotifyData(task.ID()); err != nil {
			res.Kill()
			return fmt.Errorf("replay wake: %w", err)
		}
		t1 := <-task.ran
		r.tr.add("granules.wake", uint64(len(lat)), -1, t0, t1)
		lat = append(lat, float64(t1-t0))
	}
	if err := res.Terminate(); err != nil {
		return fmt.Errorf("replay wake: %w", err)
	}
	sort.Float64s(lat)
	put("granules.wake_ns_p50", stats.Quantile(lat, 0.5), "ns")
	return nil
}

// heapObjects is the number of heap objects allocated so far.
func heapObjects() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
