// Latency-aware adaptive QoS runtime (DESIGN §16): the actuation half
// of the internal/qos controller. Each job with Config.LatencyTarget
// set builds a per-link registry at launch — every destination gets a
// sojourn probe on its capacity buffer and a histogram the probe feeds
// — and a tick loop that, every Config.QoSTick: samples each link's
// p50/p99 sojourn and queue depth, feeds the controller, re-applies the
// link's knobs (batch capacity, flush timer, gather-coalescing floor)
// when its tuning level moves, publishes a KindLatencyReport on the
// control plane, and fuses/un-fuses chainable links under a full
// quiesce. The watermark backpressure valves (Config.FlowSignals)
// always win over the controller: QoS only retunes batching knobs and
// never touches a hold, a lease, or a watermark band.
package core

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/control"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/transport"

	"sync"
)

// qosFlipTimeout bounds the quiesce (park sources + drain) that guards
// a chain/unchain flip. A flip that cannot quiesce in time is skipped
// and retried when the controller next asks — fusion is an
// optimization, never worth wedging the pipeline for.
const qosFlipTimeout = 2 * time.Second

// qosLink is the runtime's view of one sender -> receiver link. The
// histogram collects raw sojourn samples between ticks (probe side);
// everything else is touched only by the tick loop, except chainable
// (set once at launch) and the rearm path, which runs under the
// supervisor's recovery serialization.
type qosLink struct {
	id   uint64
	name string // "sender[i] -> recv[j]"
	d    *destination
	hist *metrics.Histogram
	// chainable marks the link structurally eligible for fusion: local,
	// the receiver's sole input, receiver a non-ticking processor.
	// Decided once at launch; the graph never changes.
	chainable bool
	remote    bool
	lastPkts  uint64 // buffer+chained packet total at the last tick
}

// probe is the buffer.Probe installed on the link's capacity buffer:
// one histogram record per delivered batch, outside every buffer lock.
func (ql *qosLink) probe(sojourn time.Duration, _ int) {
	ql.hist.RecordDuration(sojourn)
}

// qosRemoteKey identifies a latency report relayed from an engine
// outside this job (a bridged peer job's QoS loop).
type qosRemoteKey struct {
	origin string
	link   uint64
}

// jobQoS is the per-job QoS runtime state.
type jobQoS struct {
	target  time.Duration // end-to-end goal (Config.LatencyTarget)
	perLink time.Duration // target / deepest link path: the controller's goal
	tick    time.Duration
	ctl     *qos.Controller
	links   []*qosLink
	byDest  map[*destination]*qosLink

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	cancels  []func() // control-bus subscription cancels

	// mu guards the remote-report map and the flip tallies: plain data,
	// nothing acquired while held.
	//neptune:lock job-qos
	mu           sync.Mutex
	remote       map[qosRemoteKey]int64 // origin+link -> last report nanos
	chainFlips   uint64                 // fusions actually applied
	unchainFlips uint64                 // fusion breaks actually applied
	flipFailures uint64                 // flips skipped: quiesce timed out
}

// setupQoS builds the QoS runtime at launch (LaunchOn, after link
// wiring, before the source pumps start). A job without a latency
// target gets none of it: no probes, no goroutine, no subscriptions.
func (j *Job) setupQoS() {
	if j.cfg.LatencyTarget <= 0 {
		return
	}
	// LatencyTarget is an end-to-end goal, but the controller tunes one
	// link at a time. Split the budget across the deepest source-to-sink
	// link path: when every hop's sojourn meets its share, their sum
	// meets the job's target.
	perLink := j.cfg.LatencyTarget
	if stages, err := j.spec.Stages(); err == nil {
		depth := 1
		for _, s := range stages {
			if s > depth {
				depth = s
			}
		}
		perLink = j.cfg.LatencyTarget / time.Duration(depth)
	}
	q := &jobQoS{
		target:  j.cfg.LatencyTarget,
		perLink: perLink,
		tick:    j.cfg.QoSTick,
		ctl: qos.New(qos.Config{
			Target: perLink,
			Tick:   j.cfg.QoSTick,
		}),
		byDest: make(map[*destination]*qosLink),
		stop:   make(chan struct{}),
		remote: make(map[qosRemoteKey]int64),
	}
	// A receiver is fusable only when this link is its sole input: the
	// sender's serialized execution then doubles as the receiver's
	// serializing context.
	inbound := make(map[*instance]int)
	for _, inst := range j.instances {
		for _, l := range inst.outs {
			for _, d := range l.dests {
				inbound[d.recv]++
			}
		}
	}
	var id uint64
	for _, inst := range j.instances {
		for _, l := range inst.outs {
			for _, d := range l.dests {
				id++
				ql := &qosLink{
					id:        id,
					name:      inst.id + " -> " + d.recv.id,
					d:         d,
					hist:      metrics.NewHistogram(16),
					chainable: qosChainable(d, inbound),
					remote:    d.local == nil,
				}
				d.buf.SetProbe(ql.probe)
				q.links = append(q.links, ql)
				q.byDest[d] = ql
			}
		}
	}
	// Reports published by bridged peer jobs arrive on engine buses via
	// the control relay; record them for LatencyHealth observability.
	// The controller only ever actuates this job's own links.
	for _, e := range j.engines {
		cancel := e.bus().Subscribe(func(m control.Message) {
			if j.engineByName(m.Origin) != nil {
				return // our own publication echoed on the local bus
			}
			q.mu.Lock()
			q.remote[qosRemoteKey{origin: m.Origin, link: m.LinkID}] = m.Nanos
			q.mu.Unlock()
		}, control.KindLatencyReport)
		q.cancels = append(q.cancels, cancel)
	}
	j.qos = q
	q.wg.Add(1)
	go j.qosLoop()
}

// qosChainable decides structural fusion eligibility for one link.
func qosChainable(d *destination, inbound map[*instance]int) bool {
	if d.local == nil {
		return false // remote
	}
	if d.recv.proc == nil || inbound[d.recv] != 1 {
		return false // not a processor, or fed by more than this link
	}
	if tp, ok := d.recv.proc.(TickingProcessor); ok && tp.TickInterval() > 0 {
		// A ticking receiver executes on its own timer; direct calls
		// from the sender would race its serialized context.
		return false
	}
	return true
}

// stopQoS tears the runtime down (Job.Stop, after supervision ends and
// before sources stop): the loop exits — finishing any in-progress
// flip, whose deferred resume releases the sources — and the bus
// subscriptions detach.
func (j *Job) stopQoS() {
	q := j.qos
	if q == nil {
		return
	}
	q.stopOnce.Do(func() { close(q.stop) })
	q.wg.Wait()
	for _, c := range q.cancels {
		c()
	}
	q.cancels = nil
}

// qosLoop drives one control tick per period until stopped.
func (j *Job) qosLoop() {
	q := j.qos
	defer q.wg.Done()
	t := time.NewTicker(q.tick)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-t.C:
			j.qosTick()
		}
	}
}

// qosTick runs one control period: sample every link, feed the
// controller, re-apply knobs on level moves, publish telemetry, then
// apply any chain flips in one batched quiesce.
func (j *Job) qosTick() {
	q := j.qos
	var toChain, toUnchain []*qosLink
	for _, ql := range q.links {
		var p50, p99 time.Duration
		if ql.hist.Count() > 0 {
			p50 = time.Duration(ql.hist.Quantile(0.5))
			p99 = time.Duration(ql.hist.Quantile(0.99))
		}
		ql.hist.Reset()
		// Copy the buffer pointer out under rebuildMu: supervised
		// recovery replaces it while this loop runs.
		j.rebuildMu.RLock()
		buf := ql.d.buf
		j.rebuildMu.RUnlock()
		total := buf.Stats().Packets + ql.d.chainDelivered.Load()
		var delta uint64
		if total >= ql.lastPkts {
			delta = total - ql.lastPkts
		}
		ql.lastPkts = total
		depth := j.qosDepth(ql.d)
		act := q.ctl.Tick(ql.id, qos.Sample{
			P50:       p50,
			P99:       p99,
			Depth:     depth,
			Packets:   delta,
			Chainable: ql.chainable,
			Chained:   ql.d.chained.Load(),
		})
		if act.LevelChanged {
			j.qosApplyKnobs(ql, buf, act.Level)
		}
		if act.Chain {
			toChain = append(toChain, ql)
		}
		if act.Unchain {
			toUnchain = append(toUnchain, ql)
		}
		if delta > 0 || depth > 0 {
			sp50, sp99, _ := q.ctl.Smoothed(ql.id)
			ql.d.sender.engine.publishUp(control.Message{
				Kind:   control.KindLatencyReport,
				Op:     ql.d.recv.op.Name,
				Index:  int32(ql.d.recv.idx),
				LinkID: ql.id,
				Nanos:  time.Now().UnixNano(),
				Level:  int64(sp99),
				Low:    int64(sp50),
				High:   int64(depth),
				TTL:    flowTTL,
			})
		}
	}
	j.qosApplyFlips(toChain, toUnchain)
}

// qosDepth samples the receiver-side queue depth of one link: the
// receiving dataset's occupancy for local links, the transport's
// in-flight frame count for remote ones.
func (j *Job) qosDepth(d *destination) int {
	if d.local != nil {
		j.rebuildMu.RLock()
		ds := d.recv.dataset
		j.rebuildMu.RUnlock()
		if ds != nil {
			return ds.Len()
		}
		return 0
	}
	if f, ok := d.transport().(interface{ InFlight() int }); ok {
		return f.InFlight()
	}
	return 0
}

// qosApplyKnobs maps a tuning level onto the link's three knobs. The
// coalesce floor lives on the transport, which links toward the same
// peer engine share; the most recently retuned link wins, which is
// benign — any escalated link on the pair wants the floor lowered.
func (j *Job) qosApplyKnobs(ql *qosLink, buf *buffer.CapacityBuffer, level int) {
	capacity, delay, floor := qos.Knobs(level, j.cfg.BufferSize, j.cfg.FlushInterval, transport.DefaultCoalesceFloor)
	buf.SetCapacity(capacity)
	buf.SetMaxDelay(delay)
	if ql.remote {
		if cf, ok := ql.d.transport().(interface{ SetCoalesceFloor(int) }); ok {
			cf.SetCoalesceFloor(floor)
		}
	}
}

// qosApplyFlips fuses and un-fuses links under a checkpoint-grade
// quiesce: sources parked, pipeline drained, serialized against the
// supervisor (whose barrier and recovery sequences use the same gate)
// when one is attached. After the drain no packet is in any buffer,
// dataset, or transport on the flipped links, so the delivery-path
// switch in emitOn can never reorder or race — the receiver simply
// sees its next packet arrive by direct call instead of scheduler hop
// (or vice versa), with the stream sequence continuing unbroken.
func (j *Job) qosApplyFlips(chain, unchain []*qosLink) {
	if len(chain) == 0 && len(unchain) == 0 {
		return
	}
	q := j.qos
	if j.stopped.Load() || j.engineDown() != "" {
		return
	}
	if s := j.supervisor(); s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed.Load() || j.engineDown() != "" {
			return
		}
	}
	j.pauseSources()
	defer j.resumeSources()
	if !j.waitSourcesParked(qosFlipTimeout) {
		q.noteFlipFailure()
		return
	}
	if err := j.Drain(qosFlipTimeout); err != nil {
		q.noteFlipFailure()
		return
	}
	for _, ql := range chain {
		ql.d.chained.Store(true)
	}
	for _, ql := range unchain {
		ql.d.chained.Store(false)
	}
	q.mu.Lock()
	q.chainFlips += uint64(len(chain))
	q.unchainFlips += uint64(len(unchain))
	q.mu.Unlock()
}

func (q *jobQoS) noteFlipFailure() {
	q.mu.Lock()
	q.flipFailures++
	q.mu.Unlock()
}

// rearm re-attaches QoS state to a rebuilt destination (supervised
// recovery replaced its buffer): the fresh buffer gets its probe back,
// the fused flag is cleared — the rebuilt receiver starts un-fused and
// the controller re-chains it if it stays quiet — and the controller's
// memory of the link is dropped, so the link re-enters at level 0,
// matching the baseline knobs its fresh buffer was built with. Runs
// under the supervisor's recovery serialization.
func (q *jobQoS) rearm(d *destination) {
	ql := q.byDest[d]
	if ql == nil {
		return
	}
	d.chained.Store(false)
	d.buf.SetProbe(ql.probe)
	q.ctl.Forget(ql.id)
}

// LinkLatency is one link's entry in a LatencyHealth snapshot.
type LinkLatency struct {
	Link     string        // "sender[i] -> recv[j]"
	P50, P99 time.Duration // EWMA-smoothed sojourn quantiles
	Depth    int           // receiver-side queue depth at snapshot time
	Level    int           // current tuning level (0 = baseline knobs)
	Remote   bool          // link crosses engines

	Chainable      bool   // structurally eligible for fusion
	Chained        bool   // currently fused into a direct call
	Packets        uint64 // total packets carried (buffered + fused)
	ChainDelivered uint64 // packets delivered over the fused path
}

// LatencyHealth aggregates the QoS runtime's state: per-link smoothed
// latency and tuning levels, chaining activity, and controller action
// tallies. Enabled is false (and everything else zero) for a job
// launched without Config.LatencyTarget.
type LatencyHealth struct {
	Enabled bool
	Target  time.Duration // end-to-end goal (Config.LatencyTarget)
	// PerLinkTarget is the controller's per-hop share of Target: the
	// end-to-end budget divided by the deepest source-to-sink link path.
	PerLinkTarget time.Duration
	Links         []LinkLatency

	ChainedLinks   int    // links currently fused
	ChainDelivered uint64 // packets delivered over fused paths, total

	// Controller decisions (requests) and what actuation made of them.
	Escalations     uint64 // level increases applied
	Relaxations     uint64 // level decreases applied
	ChainRequests   uint64 // fusions the controller asked for
	UnchainRequests uint64 // breaks the controller asked for
	ChainFlips      uint64 // fusions actually applied under quiesce
	UnchainFlips    uint64 // breaks actually applied under quiesce
	FlipFailures    uint64 // flips skipped because the quiesce timed out

	// RemoteReports counts distinct (origin engine, link) latency
	// reports relayed in from outside the job.
	RemoteReports int
}

// LatencyHealth reports the job's QoS runtime snapshot.
func (j *Job) LatencyHealth() LatencyHealth {
	h := LatencyHealth{Target: j.cfg.LatencyTarget}
	q := j.qos
	if q == nil {
		return h
	}
	h.Enabled = true
	h.PerLinkTarget = q.perLink
	cnt := q.ctl.Counters()
	h.Escalations = cnt.Escalations
	h.Relaxations = cnt.Relaxations
	h.ChainRequests = cnt.Chains
	h.UnchainRequests = cnt.Unchains
	for _, ql := range q.links {
		p50, p99, level := q.ctl.Smoothed(ql.id)
		j.rebuildMu.RLock()
		buf := ql.d.buf
		j.rebuildMu.RUnlock()
		chained := ql.d.chained.Load()
		delivered := ql.d.chainDelivered.Load()
		if chained {
			h.ChainedLinks++
		}
		h.ChainDelivered += delivered
		h.Links = append(h.Links, LinkLatency{
			Link:           ql.name,
			P50:            p50,
			P99:            p99,
			Depth:          j.qosDepth(ql.d),
			Level:          level,
			Remote:         ql.remote,
			Chainable:      ql.chainable,
			Chained:        chained,
			Packets:        buf.Stats().Packets + delivered,
			ChainDelivered: delivered,
		})
	}
	q.mu.Lock()
	h.ChainFlips = q.chainFlips
	h.UnchainFlips = q.unchainFlips
	h.FlipFailures = q.flipFailures
	h.RemoteReports = len(q.remote)
	q.mu.Unlock()
	return h
}
