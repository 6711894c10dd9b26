package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compression"
	"repro/internal/granules"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/pool"
	"repro/internal/transport"
)

// Engine is one NEPTUNE resource: a container hosting operator instances
// on one Granules resource (the worker pool of the paper's two-tier
// thread model, sized to the machine's cores) with its own pooled
// packet/buffer storage, and a frame dispatcher for traffic arriving
// from remote engines. One OS process typically runs one engine;
// multi-node deployments connect engines with the transport package (or
// the cluster simulator models them).
//
// The dispatch path is lock-free: channel routing is a copy-on-write map
// (registration is setup-time, dispatch is per-frame), lifecycle is an
// atomic flag, the clock is an atomic pointer, and the hot counters are
// pre-resolved once instead of looked up by name per frame. e.mu
// serializes only setup and shutdown.
type Engine struct {
	name    string
	cfg     Config
	metrics *metrics.Registry
	nowFn   atomic.Pointer[func() int64]

	// res is swapped by a supervised revive while flush timers and late
	// dispatches may still be reading it, hence the atomic pointer.
	res     atomic.Pointer[granules.Resource]
	pktPool *pool.PacketPool
	bufPool *pool.BufferPool
	// pktPool.GetBatch bound once, not per frame: the decode path takes
	// a whole frame's packets under one pool lock instead of one lock op
	// per packet.
	allocBatch func(dst []*packet.Packet, n int) []*packet.Packet
	// inBatches recycles inbound batch shells and their packet-pointer
	// slices (when Config.Pooling is on): every flushed or ingested frame
	// needs one, and its consumer hands it back once the packets are out.
	inBatches sync.Pool

	//neptune:lock engine
	mu        sync.Mutex
	instances map[instKey]*instance
	channels  atomic.Pointer[map[uint32]*instance] //neptune:cow inbound channel -> instance
	closed    atomic.Bool

	// ctrl is the engine's control-plane endpoint: local bus, links
	// toward peer engines, and control-traffic counters (controlplane.go).
	ctrl engineControl

	// Hot-path counters, resolved once from the registry at construction.
	// They stay registered under their usual names (launcher drain checks
	// and tests read them by name); only the per-event lookup goes away.
	framesIn        *metrics.Counter
	dispatchErrs    *metrics.Counter
	dispatchUnknown *metrics.Counter
	sendErrs        *metrics.Counter
	bytesOut        *metrics.Counter
	batchesOut      *metrics.Counter
	dropsOnShutdown *metrics.Counter
	dupDropped      *metrics.Counter
}

type instKey struct {
	op  string
	idx int
}

// recycleBatch returns a batch of packets to the engine's pool under one
// lock. Callers give up ownership of every packet in ps, exactly as with
// PutBatch.
//
//neptune:putlike
func (e *Engine) recycleBatch(ps []*packet.Packet) {
	e.pktPool.PutBatch(ps)
}

// getInBatch returns an empty inbound batch, reusing a released one's
// packet slice when pooling is on.
func (e *Engine) getInBatch() *inBatch {
	if e.cfg.Pooling {
		if b, ok := e.inBatches.Get().(*inBatch); ok {
			return b
		}
	}
	return &inBatch{}
}

// releaseInBatch takes back a batch whose packets have all been handed
// on: the packet pointers are cleared, the slice's capacity kept.
func (e *Engine) releaseInBatch(b *inBatch) {
	if !e.cfg.Pooling {
		return
	}
	clear(b.packets)
	b.packets = b.packets[:0]
	b.bytes = 0
	e.inBatches.Put(b)
}

// Engine errors.
var (
	ErrEngineClosed   = errors.New("core: engine closed")
	ErrUnknownChannel = errors.New("core: frame for unknown channel")
	ErrUnknownLink    = errors.New("core: unknown link")
	ErrStopped        = errors.New("core: job stopped")
)

// NewEngine creates an engine named name with the given config.
func NewEngine(name string, cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{
		name:      name,
		cfg:       cfg,
		metrics:   metrics.NewRegistry(nil),
		instances: make(map[instKey]*instance),
	}
	e.pktPool = pool.NewPacketPool(cfg.PoolCapacity, cfg.Pooling)
	e.bufPool = pool.NewBufferPool(256, 4<<20, cfg.Pooling)
	e.allocBatch = e.pktPool.GetBatch
	e.res.Store(granules.NewResource(name, 0))
	wallClock := func() int64 { return time.Now().UnixNano() }
	e.nowFn.Store(&wallClock)
	empty := make(map[uint32]*instance)
	e.channels.Store(&empty)
	e.framesIn = e.metrics.Counter("frames_in")
	e.dispatchErrs = e.metrics.Counter("dispatch_errors")
	e.dispatchUnknown = e.metrics.Counter("dispatch_unknown_channel")
	e.sendErrs = e.metrics.Counter("send_errors")
	e.bytesOut = e.metrics.Counter("bytes_out")
	e.batchesOut = e.metrics.Counter("batches_out")
	e.dropsOnShutdown = e.metrics.Counter("drops_on_shutdown")
	e.dupDropped = e.metrics.Counter("packets_dup_dropped")
	e.initControl()
	return e, nil
}

// Name returns the engine's name.
func (e *Engine) Name() string { return e.name }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Metrics returns the engine's metric registry.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics }

// Resource exposes the engine's Granules resource (scheduling metrics).
// The atomic load makes the read safe against a supervised revive
// swapping the resource.
func (e *Engine) Resource() *granules.Resource { return e.res.Load() }

// ContextSwitches reports the scheduler's context-switch equivalents.
func (e *Engine) ContextSwitches() uint64 {
	return e.Resource().Switches().Switches()
}

// PacketPoolStats reports the engine's packet pool counters.
func (e *Engine) PacketPoolStats() pool.Stats { return e.pktPool.Stats() }

// now returns the engine clock in nanoseconds.
func (e *Engine) now() int64 { return (*e.nowFn.Load())() }

// SetClock overrides the engine clock (tests and simulations). Safe to
// call while dispatch and executions are in flight.
func (e *Engine) SetClock(fn func() int64) { e.nowFn.Store(&fn) }

// Dispatch delivers an inbound transport frame to the destination
// instance's dataset. It is the Handler wired into transports whose remote
// peer sends to this engine. Dispatch blocks while the destination's
// inbound buffer is above its high watermark — this is the stall that TCP
// flow control turns into sender-side backpressure.
//
//neptune:hotpath
func (e *Engine) Dispatch(f transport.Frame) {
	if e.closed.Load() {
		return
	}
	inst, ok := (*e.channels.Load())[f.Channel]
	if !ok {
		e.dispatchUnknown.Inc()
		e.framesIn.Inc()
		return
	}
	if err := inst.ingestFrame(f.Payload); err != nil {
		e.dispatchErrs.Inc()
	}
	// frames_in is incremented after ingest so Drain's sent==received
	// check only passes once the frame's packets sit in a dataset (or
	// were accounted as errors) rather than in flight.
	e.framesIn.Inc()
}

// registerChannel binds an inbound channel id to an instance. The routing
// map is copy-on-write: writers clone under e.mu, concurrent Dispatch
// calls keep reading the old snapshot lock-free.
func (e *Engine) registerChannel(ch uint32, inst *instance) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.channels.Load()
	if _, dup := old[ch]; dup {
		return fmt.Errorf("core: channel %d already registered", ch)
	}
	next := make(map[uint32]*instance, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[ch] = inst
	e.channels.Store(&next)
	return nil
}

// addInstance creates and registers an operator instance. Wiring of
// outbound links happens separately (the launcher connects instances after
// all of them exist).
func (e *Engine) addInstance(inst *instance) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrEngineClosed
	}
	k := instKey{op: inst.op.Name, idx: inst.idx}
	if _, dup := e.instances[k]; dup {
		return fmt.Errorf("core: duplicate instance %s[%d]", inst.op.Name, inst.idx)
	}
	e.instances[k] = inst
	return nil
}

// instance looks up a hosted instance.
func (e *Engine) instance(op string, idx int) *instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.instances[instKey{op: op, idx: idx}]
}

// deploy starts the engine's Granules resource (idempotent across jobs
// sharing the engine is not supported: one engine runs one job in this
// reproduction).
func (e *Engine) deploy() error { return e.Resource().Deploy() }

// quiesce waits until all hosted tasks are idle.
func (e *Engine) quiesce(timeout time.Duration) bool {
	return e.Resource().Quiesce(timeout)
}

// hostedInstances snapshots the engine's instances under the setup lock.
func (e *Engine) hostedInstances() []*instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	insts := make([]*instance, 0, len(e.instances))
	for _, inst := range e.instances {
		insts = append(insts, inst)
	}
	return insts
}

// crash simulates abrupt process death of the engine's resource: inbound
// dispatch is gated off, source pumps are told to stop without counting as
// finished, and the Granules resource is killed without running operator
// Close hooks — state dies with the process, exactly what checkpointed
// recovery must compensate for. Idempotent.
func (e *Engine) crash() {
	insts := e.hostedInstances()
	e.closed.Store(true)
	for _, inst := range insts {
		if inst.source != nil {
			inst.pumpCrashed.Store(true)
			inst.stopping.Store(true)
		}
	}
	e.Resource().Kill()
}

// revive replaces the killed resource with a fresh one and reopens the
// dispatch gate. Only the supervisor calls this, after crash() has
// finished and with no executions in flight; rebuildInstances
// re-registers the instances on the fresh resource.
func (e *Engine) revive() {
	e.res.Store(granules.NewResource(e.name, 0))
	e.closed.Store(false)
}

// close terminates the engine's resource and instances.
func (e *Engine) close() error {
	e.mu.Lock()
	if !e.closed.CompareAndSwap(false, true) {
		e.mu.Unlock()
		return nil
	}
	insts := make([]*instance, 0, len(e.instances))
	for _, inst := range e.instances {
		insts = append(insts, inst)
	}
	e.mu.Unlock()
	for _, inst := range insts {
		inst.shutdownInputs()
	}
	err := e.Resource().Terminate()
	for _, inst := range insts {
		inst.closeOperator()
	}
	return err
}

// newSelective builds the per-link compression codec when the config
// enables compression; nil otherwise.
func (e *Engine) newSelective() *compression.Selective {
	if e.cfg.CompressionThreshold <= 0 {
		return nil
	}
	return &compression.Selective{Threshold: e.cfg.CompressionThreshold}
}
