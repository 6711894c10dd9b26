package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/compression"
	"repro/internal/granules"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/transport"
)

// inBatch is one unit on an instance's inbound dataset: the packets of one
// flushed (and, for remote links, one decoded) batch plus their wire size.
// Batches come from Engine.getInBatch and go back through releaseInBatch
// once the consuming execution has taken every packet out.
type inBatch struct {
	packets []*packet.Packet
	bytes   int
}

// transportBox wraps a transport so destinations can swap links atomically:
// the supervisor replaces a crashed engine's transports while flush timers
// keep firing on surviving senders.
type transportBox struct {
	tr transport.Transport
}

// destination is one (sender instance, link, receiver instance) edge: a
// capacity buffer that flushes either into a co-located instance's dataset
// or over a transport channel.
type destination struct {
	channel  uint32
	streamID uint32
	local    *instance                    // non-nil when receiver shares the engine
	remote   atomic.Pointer[transportBox] // used otherwise; swapped on supervised rebuild
	recv     *instance                    // receiving instance (local or remote)
	buf      *buffer.CapacityBuffer
	sender   *instance

	// replay retains encoded wire frames since the last checkpoint barrier
	// so a supervisor can re-send them after the receiving engine crashes.
	// nil (the default) when the job is not supervised with replay — the
	// only cost on an unsupervised hot path is this one atomic load per
	// flushed frame.
	replay atomic.Pointer[replayLog]

	// Staged packets accumulated during one batched execution; flushStage
	// hands the whole run to buf.AddBatch so the buffer lock is taken once
	// per batch instead of once per packet (touched only by the sender's
	// serialized executions).
	stage      []*packet.Packet
	stageBytes int

	// chained marks the link fused into a direct call (DESIGN §16):
	// emitOn delivers straight into recv.processOne, skipping the
	// capacity buffer, the scheduler hop, and (trivially — chained links
	// are always local) the transport. Flipped only by the QoS runtime
	// under a full quiesce (sources parked, pipeline drained), and only
	// for a receiver whose sole input is this link, so the sender's
	// serialized execution doubles as the receiver's serializing
	// context. Atomic because LatencyHealth and the QoS tick loop read
	// it outside that quiesce.
	chained atomic.Bool
	// chainDelivered counts packets delivered over the fused path — the
	// "hop removed" evidence asserted by tests and LatencyHealth.
	chainDelivered atomic.Uint64

	seq uint64 // next sequence number (sender executions are serialized)
	enc packet.Encoder
	sel *compression.Selective
}

// setTransport installs (or swaps) the destination's remote transport.
func (d *destination) setTransport(tr transport.Transport) {
	d.remote.Store(&transportBox{tr: tr})
}

// transport returns the destination's current remote transport (nil for
// local destinations).
func (d *destination) transport() transport.Transport {
	if b := d.remote.Load(); b != nil {
		return b.tr
	}
	return nil
}

// replayLog retains the encoded frames a destination sent since the last
// checkpoint barrier, so they can be re-sent verbatim (same encoding, same
// compression) if the receiving engine crashes. Appends come from flush
// timer goroutines; resets come from the supervisor's barrier.
type replayLog struct {
	//neptune:lock replay
	mu      sync.Mutex
	frames  [][]byte
	packets []int // packet count per frame, for the replayed_packets metric
}

func (rl *replayLog) append(frame []byte, npkts int) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	rl.mu.Lock()
	rl.frames = append(rl.frames, cp)
	rl.packets = append(rl.packets, npkts)
	rl.mu.Unlock()
}

// snapshot copies out the retained frames and their packet counts.
func (rl *replayLog) snapshot() ([][]byte, []int) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	frames := make([][]byte, len(rl.frames))
	copy(frames, rl.frames)
	packets := make([]int, len(rl.packets))
	copy(packets, rl.packets)
	return frames, packets
}

func (rl *replayLog) reset() {
	rl.mu.Lock()
	rl.frames = nil
	rl.packets = nil
	rl.mu.Unlock()
}

// outLink is one outgoing link of one sender instance.
type outLink struct {
	spec     graph.LinkSpec
	part     graph.Partitioner
	dests    []*destination
	routeBuf []int
}

// instance is one parallel instance of a stream operator.
type instance struct {
	engine *Engine
	op     graph.OperatorSpec
	idx    int
	id     string // cached "op[idx]" — formatted once, read on every execution

	source Source
	proc   Processor

	ctx       OpContext
	dataset   *granules.StreamDataset[*inBatch]
	outs      []*outLink
	outByName map[string]*outLink
	isSink    bool

	// Per-message scheduling cursor (Batching = false). cur is written
	// only by the instance's serialized executions but read concurrently
	// by Job.Drain's quiescence probe (inEmpty), hence atomic; curPos is
	// private to the execution goroutine.
	cur    atomic.Pointer[inBatch]
	curPos int

	// Staged-emit state (Batching = true): while staging is set, emitOn
	// parks packets on each destination's stage slice instead of taking
	// the buffer lock per packet; flushStage moves each run into the
	// buffer in one AddBatch call. Touched only by the instance's
	// serialized executions.
	staging     bool
	stagedDests []*destination
	// recycle collects non-forwarded packets during a staged execution so
	// the whole batch returns to the pool in one PutBatch instead of one
	// pool lock op per packet.
	recycle []*packet.Packet

	// lastTick is the engine-clock time of the last TickingProcessor
	// callback (accessed only from serialized executions).
	lastTick int64

	// Ordering verification (Config.VerifyOrdering).
	expect    map[uint32]uint64
	verifyErr errOnce

	// Remote-ingest dedup (Config.DedupRemote): next expected sequence per
	// stream. Guarded by its own mutex because multiple transport IO
	// goroutines may ingest frames for one instance concurrently.
	//neptune:lock dedup
	dedupMu   sync.Mutex
	dedupNext map[uint32]uint64

	stopping atomic.Bool
	pumpWG   sync.WaitGroup
	pumpErr  errOnce
	closeOp  sync.Once

	// Pause gate (checkpoint barriers and recovery): when armed, the
	// source pump parks at the top of its loop until resumed. paused and
	// pumpDone let the supervisor observe that every pump is parked (or
	// exited) before snapshotting. pumpCrashed marks a pump stopped by a
	// crash injection: its exit must not count toward the job's
	// sources-finished accounting, because the supervisor restarts it.
	//neptune:lock pause
	pauseMu     sync.Mutex
	pauseCh     chan struct{}
	paused      atomic.Bool
	pumpDone    atomic.Bool
	pumpCrashed atomic.Bool
	pumpOnExit  func(error) // retained so a supervised restart reuses it

	// Flow-signal state (Config.FlowSignals, controlplane.go). For a
	// source, flow holds the downstream watermark advertisements that
	// pause its pump at flowPoint; flowGates/flowGatedNs count the pauses.
	// For a processor, flowSeq retains the last close-transition sequence
	// so the refresher re-advertises with consistent ordering.
	flow        *flowState
	flowGates   atomic.Uint64
	flowGatedNs atomic.Int64
	flowSeq     atomic.Uint64

	// Decode-side state. packet.Decoder is stateless; the Selective
	// codec's Decode path is read-only, so sharing across transport IO
	// goroutines is safe.
	dec packet.Decoder
	sel *compression.Selective

	processed *metrics.Counter
	emitted   *metrics.Counter
	batches   *metrics.Counter
	latency   *metrics.Histogram
	procErrs  *metrics.Counter
}

// errOnce retains the first error recorded.
type errOnce struct {
	//neptune:lock erronce
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// taskID names the instance's Granules task.
func (inst *instance) taskID() string { return inst.id }

// newInstance builds an instance shell; link wiring attaches outputs.
func newInstance(e *Engine, op graph.OperatorSpec, idx int, src Source, proc Processor) (*instance, error) {
	inst := &instance{
		engine:    e,
		op:        op,
		idx:       idx,
		id:        fmt.Sprintf("%s[%d]", op.Name, idx),
		source:    src,
		proc:      proc,
		outByName: make(map[string]*outLink),
		sel:       e.newSelective(),
		processed: e.metrics.Counter(op.Name + ".processed"),
		emitted:   e.metrics.Counter(op.Name + ".emitted"),
		batches:   e.metrics.Counter(op.Name + ".batches"),
		procErrs:  e.metrics.Counter(op.Name + ".errors"),
	}
	inst.ctx = OpContext{inst: inst}
	if e.cfg.VerifyOrdering {
		inst.expect = make(map[uint32]uint64)
	}
	if e.cfg.DedupRemote {
		inst.dedupNext = make(map[uint32]uint64)
	}
	if proc != nil {
		ds, err := granules.NewStreamDataset[*inBatch](
			"in", e.Resource(), inst.taskID(), e.cfg.InLowWatermark, e.cfg.InHighWatermark)
		if err != nil {
			return nil, err
		}
		inst.dataset = ds
	}
	if err := e.addInstance(inst); err != nil {
		return nil, err
	}
	return inst, nil
}

// markSink finalizes the instance after wiring: instances without outputs
// are sinks and record end-to-end latency.
func (inst *instance) markSinkIfTerminal() {
	if len(inst.outs) == 0 && inst.proc != nil {
		inst.isSink = true
		inst.latency = inst.engine.metrics.Histogram(inst.op.Name + ".latency_ns")
	}
}

// addOut attaches an outgoing link with its per-destination buffers.
func (inst *instance) addOut(spec graph.LinkSpec, part graph.Partitioner, dests []*destination) {
	l := &outLink{spec: spec, part: part, dests: dests}
	inst.outs = append(inst.outs, l)
	inst.outByName[spec.Name] = l
}

// ---- Granules task adaptation (processors) ----

// ID implements granules.Task.
func (inst *instance) ID() string { return inst.taskID() }

// Init implements granules.Task: the processor's Open runs here.
func (inst *instance) Init(rc *granules.RunContext) error {
	if inst.proc != nil {
		return inst.proc.Open(&inst.ctx)
	}
	return nil
}

// Execute implements granules.Task: one scheduled execution of the stream
// processor. With batching enabled it consumes one whole buffered batch;
// with batching disabled it consumes exactly one packet and reschedules
// itself — the per-message mode whose context-switch cost Table I
// quantifies.
func (inst *instance) Execute(rc *granules.RunContext) error {
	if inst.engine.cfg.Batching {
		defer inst.maybeTick()
		b, ok := inst.dataset.Poll()
		if !ok {
			return nil
		}
		inst.batches.Inc()
		// Stage emissions for the whole batch: emitOn parks packets on
		// each destination and flushStage moves every run into its buffer
		// with one lock acquisition, instead of locking per packet.
		inst.staging = true
		for _, p := range b.packets {
			inst.processOne(p)
		}
		inst.staging = false
		inst.engine.releaseInBatch(b)
		inst.flushStage()
		if inst.dataset.Len() > 0 {
			_ = rc.Resource().NotifyData(inst.taskID()) //neptune:discarderr self re-notify; fails only after Stop, when delivery no longer matters
		}
		return nil
	}
	// Per-message scheduling.
	defer inst.maybeTick()
	cur := inst.cur.Load()
	if cur == nil {
		b, ok := inst.dataset.Poll()
		if !ok {
			return nil
		}
		inst.batches.Inc()
		cur = b
		inst.cur.Store(b)
		inst.curPos = 0
	}
	p := cur.packets[inst.curPos]
	inst.curPos++
	if inst.curPos >= len(cur.packets) {
		inst.cur.Store(nil)
		inst.engine.releaseInBatch(cur)
		cur = nil
	}
	inst.processOne(p)
	if cur != nil || inst.dataset.Len() > 0 {
		_ = rc.Resource().NotifyData(inst.taskID()) //neptune:discarderr self re-notify; fails only after Stop, when delivery no longer matters
	}
	return nil
}

// Close implements granules.Task. Operator close is handled separately
// (closeOperator) so sources and processors share one path.
func (inst *instance) Close() error { return nil }

// closeOperator closes the user operator exactly once.
func (inst *instance) closeOperator() {
	inst.closeOp.Do(func() {
		if inst.source != nil {
			if err := inst.source.Close(); err != nil {
				inst.procErrs.Inc()
			}
		}
		if inst.proc != nil {
			if err := inst.proc.Close(); err != nil {
				inst.procErrs.Inc()
			}
		}
	})
}

// processOne runs the processor on one packet and manages its lifecycle.
func (inst *instance) processOne(p *packet.Packet) {
	if inst.expect != nil {
		inst.checkOrder(p)
	}
	inst.ctx.current = p
	inst.ctx.forwarded = false
	if err := inst.proc.Process(&inst.ctx, p); err != nil {
		inst.procErrs.Inc()
		inst.verifyErr.set(fmt.Errorf("core: %s process: %w", inst.taskID(), err))
	}
	inst.processed.Inc()
	if inst.isSink && p.EmitNanos > 0 {
		inst.latency.Record(inst.engine.now() - p.EmitNanos)
	}
	if !inst.ctx.forwarded {
		if inst.staging {
			inst.recycle = append(inst.recycle, p)
		} else {
			inst.engine.pktPool.Put(p)
		}
	}
	inst.ctx.current = nil
}

// checkOrder enforces the in-order, exactly-once invariant per stream.
func (inst *instance) checkOrder(p *packet.Packet) {
	want := inst.expect[p.StreamID]
	if p.Seq != want {
		inst.verifyErr.set(fmt.Errorf(
			"core: %s stream %d: got seq %d, want %d (reorder/loss/duplicate)",
			inst.taskID(), p.StreamID, p.Seq, want))
	}
	inst.expect[p.StreamID] = p.Seq + 1
}

// VerifyError reports an ordering or processing violation, if any.
func (inst *instance) VerifyError() error { return inst.verifyErr.get() }

// ---- Emission ----

// emit routes p on the named link.
func (inst *instance) emit(c *OpContext, link string, p *packet.Packet) error {
	l, ok := inst.outByName[link]
	if !ok {
		return fmt.Errorf("%w: %q from %s", ErrUnknownLink, link, inst.taskID())
	}
	return inst.emitOn(c, l, p)
}

// emitOn stamps, partitions, and buffers the packet. Ownership of p moves
// to the engine; for broadcast-style fan-out every extra destination gets
// a pooled copy.
func (inst *instance) emitOn(c *OpContext, l *outLink, p *packet.Packet) error {
	if inst.stopping.Load() && inst.source != nil {
		// Source pumps observe shutdown through the emit path too, so a
		// source blocked in a tight Next loop still terminates.
		return ErrStopped
	}
	if p.EmitNanos == 0 {
		p.EmitNanos = inst.engine.now()
	}
	if p == c.current {
		c.forwarded = true
	}
	l.routeBuf = l.part.Route(p, len(l.dests), l.routeBuf[:0])
	route := l.routeBuf
	for i, destIdx := range route {
		out := p
		if i < len(route)-1 {
			// All but the last destination receive a copy.
			out = inst.engine.pktPool.Get()
			p.CopyTo(out)
		}
		d := l.dests[destIdx]
		out.StreamID = d.streamID
		out.Seq = d.seq
		d.seq++
		if d.chained.Load() {
			// Fused link: synchronous delivery into the receiver.
			// StreamID/Seq are still assigned above so ordering
			// verification holds and an unchain resumes the sequence
			// without a gap.
			d.chainDelivered.Add(1)
			inst.emitted.Inc()
			d.recv.processOne(out)
			continue
		}
		if inst.staging {
			if len(d.stage) == 0 {
				inst.stagedDests = append(inst.stagedDests, d)
			}
			d.stage = append(d.stage, out)
			inst.emitted.Inc()
			continue
		}
		if err := d.buf.Add(out); err != nil {
			inst.engine.pktPool.Put(out)
			return fmt.Errorf("core: emit on %q: %w", l.spec.Name, err)
		}
		inst.emitted.Inc()
	}
	return nil
}

// flushStage hands every staged run to its destination's buffer, one
// AddBatch per destination touched during the execution. A buffer closed
// mid-run (job shutdown) surfaces like a failed Add: the unadmitted
// packets are recycled and the error is recorded.
func (inst *instance) flushStage() {
	for _, d := range inst.stagedDests {
		n, err := d.buf.AddBatch(d.stage)
		if err != nil {
			inst.engine.pktPool.PutBatch(d.stage[n:])
			inst.procErrs.Inc()
			inst.verifyErr.set(fmt.Errorf("core: staged emit from %s: %w", inst.taskID(), err))
		}
		for i := range d.stage {
			d.stage[i] = nil
		}
		d.stage = d.stage[:0]
	}
	inst.stagedDests = inst.stagedDests[:0]
	if len(inst.recycle) > 0 {
		inst.engine.pktPool.PutBatch(inst.recycle)
		for i := range inst.recycle {
			inst.recycle[i] = nil
		}
		inst.recycle = inst.recycle[:0]
	}
}

// flush delivers one flushed batch for a destination: zero-copy handoff to
// a co-located instance, or encode (+ optional entropy-gated compression)
// and transport send for a remote one. There is one egress path: the batch
// is encoded into a buffer drawn from the engine's pool, and a transport
// implementing transport.OwnedSender takes that buffer itself — not a
// copy — and returns it to the pool through the release callback once it
// is done (TCP after the gather-write, Resilient on ack). SendOwned
// assumes ownership whether or not it errors, so nothing here may touch
// the frame after the annotated handoff — the retainedbuf analyzer
// enforces exactly that. Any other transport copies in Send, and the
// buffer goes straight back to the pool.
func (d *destination) flush(batch []*packet.Packet, bytes int, _ buffer.FlushReason) {
	e := d.sender.engine
	if d.local != nil {
		b := e.getInBatch()
		b.packets = append(b.packets, batch...)
		b.bytes = bytes
		if err := d.local.dataset.Put(b, int64(bytes)); err != nil {
			// Receiver shut down: recycle and drop (job is ending).
			e.recycleBatch(b.packets)
			e.dropsOnShutdown.Add(uint64(len(b.packets)))
			e.releaseInBatch(b)
		}
		return
	}
	// Headroom above the buffer's byte accounting: per-packet wire framing
	// can exceed the accounted payload size for tiny packets.
	frame := d.enc.EncodeBatch(e.bufPool.Get(bytes+bytes/2+64), batch)
	if d.sel != nil {
		comp := d.sel.Encode(e.bufPool.Get(len(frame)+64), frame)
		e.bufPool.Put(frame)
		frame = comp
	}
	// Retain the frame for crash replay (append copies) before the send:
	// a send that fails because the receiving engine just died is exactly
	// the frame recovery must re-send.
	if rl := d.replay.Load(); rl != nil {
		rl.append(frame, len(batch))
	}
	e.recycleBatch(batch)
	size := len(frame)
	var err error
	tr := d.transport()
	if owned, ok := tr.(transport.OwnedSender); ok {
		err = owned.SendOwned(d.channel, frame, func() { e.bufPool.Put(frame) }) //neptune:handoff
	} else {
		err = tr.Send(d.channel, frame)
		e.bufPool.Put(frame)
	}
	if err != nil {
		e.sendErrs.Inc()
		return
	}
	e.bytesOut.Add(uint64(size))
	e.batchesOut.Inc()
}

// ingestFrame decodes a remote frame into pooled packets and enqueues them
// on the instance's dataset. Called from transport IO goroutines; blocking
// here propagates backpressure into the socket.
func (inst *instance) ingestFrame(frame []byte) error {
	e := inst.engine
	data := frame
	var decBuf []byte
	if inst.sel != nil {
		// Draw exactly the size class the frame's header states (bounded
		// by MaxFrameSize and by what the block can expand to), so the
		// decode never outgrows the buffer and the buffer returns to its
		// class on Put.
		size, err := compression.DecodedLen(frame, transport.MaxFrameSize)
		if err != nil {
			return err
		}
		decBuf, err = inst.sel.Decode(e.bufPool.Get(size), frame, transport.MaxFrameSize)
		if err != nil {
			e.bufPool.Put(decBuf)
			return err
		}
		data = decBuf
	}
	b := e.getInBatch()
	var err error
	b.packets, _, err = inst.dec.DecodeBatchAppend(data, e.allocBatch, b.packets)
	if decBuf != nil {
		e.bufPool.Put(decBuf)
	}
	if err != nil {
		e.recycleBatch(b.packets)
		e.releaseInBatch(b)
		return err
	}
	if inst.dedupNext != nil {
		b.packets = inst.dedupPackets(b.packets)
		if len(b.packets) == 0 {
			e.releaseInBatch(b)
			return nil // whole frame was a duplicate redelivery
		}
	}
	b.bytes = len(data)
	if err := inst.dataset.Put(b, int64(b.bytes)); err != nil {
		e.recycleBatch(b.packets)
		e.releaseInBatch(b)
		return err
	}
	return nil
}

// dedupPackets drops decoded packets whose per-stream sequence was already
// ingested, recycling them and counting "packets_dup_dropped". The resilient
// transport dedups redelivered frames per link, but duplication the link
// layer cannot attribute (injected frame duplication, a link torn down and
// recreated mid-job, v1 senders) still reaches this point; sequence
// regression is the one signal that survives all those paths.
func (inst *instance) dedupPackets(pkts []*packet.Packet) []*packet.Packet {
	e := inst.engine
	kept := pkts[:0]
	var dropped uint64
	inst.dedupMu.Lock()
	for _, p := range pkts {
		if next, ok := inst.dedupNext[p.StreamID]; ok && p.Seq < next {
			inst.engine.pktPool.Put(p)
			dropped++
			continue
		}
		inst.dedupNext[p.StreamID] = p.Seq + 1
		kept = append(kept, p)
	}
	inst.dedupMu.Unlock()
	if dropped > 0 {
		e.dupDropped.Add(dropped)
	}
	return kept
}

// ---- Source pump ----

// startPump launches the source loop on its own goroutine.
func (inst *instance) startPump(onExit func(error)) {
	inst.pumpOnExit = onExit
	inst.pumpDone.Store(false)
	inst.pumpWG.Add(1)
	go func() {
		defer inst.pumpWG.Done()
		err := inst.runPump()
		inst.pumpDone.Store(true)
		if inst.pumpCrashed.Load() {
			// Crash-injected exit: the supervisor owns this pump's
			// lifecycle and will restart it; the job's sources-finished
			// accounting must not see this as a completed source.
			return
		}
		inst.pumpErr.set(err)
		if onExit != nil {
			onExit(err)
		}
	}()
}

func (inst *instance) runPump() error {
	if err := inst.source.Open(&inst.ctx); err != nil {
		return fmt.Errorf("core: %s open: %w", inst.taskID(), err)
	}
	for !inst.stopping.Load() {
		inst.pausePoint()
		if inst.stopping.Load() {
			break
		}
		inst.flowPoint()
		err := inst.source.Next(&inst.ctx)
		if err == nil {
			continue
		}
		if errors.Is(err, io.EOF) || errors.Is(err, ErrStopped) {
			return nil
		}
		return fmt.Errorf("core: %s next: %w", inst.taskID(), err)
	}
	return nil
}

// flowPoint holds the source pump while a downstream watermark
// advertisement is active (Config.FlowSignals): the control-plane
// counterpart of the blocked-writer chain, engaging before this pump
// fills the intermediate buffers. The no-signal fast path is one nil
// check plus one atomic load. The hold yields to shutdown and to an
// armed pause gate — checkpoint barriers park at pausePoint, not here.
func (inst *instance) flowPoint() {
	fs := inst.flow
	if fs == nil || fs.gated.Load() == 0 {
		return
	}
	start := time.Now().UnixNano()
	if !fs.gatedNow(start) {
		return
	}
	inst.flowGates.Add(1)
	for !inst.stopping.Load() && !inst.pauseArmed() {
		time.Sleep(200 * time.Microsecond)
		if !fs.gatedNow(time.Now().UnixNano()) {
			break
		}
	}
	inst.flowGatedNs.Add(time.Now().UnixNano() - start)
}

// pauseArmed reports whether a pause gate is set (the pump will park at
// its next pausePoint).
func (inst *instance) pauseArmed() bool {
	inst.pauseMu.Lock()
	armed := inst.pauseCh != nil
	inst.pauseMu.Unlock()
	return armed
}

// ---- Pause gate (checkpoint barriers) ----

// pausePoint parks the pump while a barrier or recovery is in progress.
func (inst *instance) pausePoint() {
	for {
		inst.pauseMu.Lock()
		ch := inst.pauseCh
		inst.pauseMu.Unlock()
		if ch == nil {
			return
		}
		inst.paused.Store(true)
		<-ch
		inst.paused.Store(false)
	}
}

// pause arms the gate; the pump parks at its next pausePoint.
func (inst *instance) pause() {
	inst.pauseMu.Lock()
	if inst.pauseCh == nil {
		inst.pauseCh = make(chan struct{})
	}
	inst.pauseMu.Unlock()
}

// resume releases a parked pump.
func (inst *instance) resume() {
	inst.pauseMu.Lock()
	ch := inst.pauseCh
	inst.pauseCh = nil
	inst.pauseMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// parked reports whether the pump is at the gate or has exited.
func (inst *instance) parked() bool {
	return inst.paused.Load() || inst.pumpDone.Load()
}

// PumpError reports a source pump failure, if any.
func (inst *instance) PumpError() error { return inst.pumpErr.get() }

// stop requests the instance wind down (sources stop emitting).
func (inst *instance) stop() {
	inst.stopping.Store(true)
}

// waitPump blocks until the source pump exits (no-op for processors).
func (inst *instance) waitPump() { inst.pumpWG.Wait() }

// flushOuts forces all outbound buffers to flush pending packets.
func (inst *instance) flushOuts() {
	for _, l := range inst.outs {
		for _, d := range l.dests {
			d.buf.Flush()
		}
	}
}

// closeOuts closes all outbound buffers (flushing remainders).
func (inst *instance) closeOuts() {
	for _, l := range inst.outs {
		for _, d := range l.dests {
			d.buf.Close()
		}
	}
}

// outsEmpty reports whether every outbound buffer is drained: nothing
// pending and no taken batch still being delivered (a timer flush in
// flight is invisible to Len alone).
func (inst *instance) outsEmpty() bool {
	for _, l := range inst.outs {
		for _, d := range l.dests {
			if !d.buf.Settled() {
				return false
			}
		}
	}
	return true
}

// inEmpty reports whether the inbound dataset (and per-message cursor) is
// drained.
func (inst *instance) inEmpty() bool {
	if inst.dataset == nil {
		return true
	}
	if inst.cur.Load() != nil {
		return false
	}
	return inst.dataset.Len() == 0
}

// shutdownInputs closes the inbound dataset, releasing blocked producers.
func (inst *instance) shutdownInputs() {
	if inst.dataset != nil {
		inst.dataset.Close()
	}
}
