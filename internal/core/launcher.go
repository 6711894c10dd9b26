package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/granules"
	"repro/internal/graph"
	"repro/internal/transport"
)

// Bridger connects pairs of engines with transports. The launcher asks for
// one transport per (sender engine, receiver engine) pair that exchanges
// traffic; implementations may pool or multiplex as they wish.
type Bridger interface {
	// Connect returns a transport whose Send delivers frames to the
	// receiving engine's Dispatch.
	Connect(from, to *Engine) (transport.Transport, error)
	// Close tears down every transport the bridger created.
	Close() error
}

// InprocBridger connects engines within one process through bounded
// in-memory queues.
type InprocBridger struct {
	low, high int64
	//neptune:lock bridge-inproc
	mu      sync.Mutex
	created []transport.Transport
}

// NewInprocBridger creates a bridger with the given outbound watermarks
// (zero values default to 512 KiB / 1 MiB).
func NewInprocBridger(low, high int64) *InprocBridger {
	if high <= 0 {
		high = 1 << 20
	}
	if low <= 0 || low >= high {
		low = high / 2
	}
	return &InprocBridger{low: low, high: high}
}

// Connect implements Bridger.
func (b *InprocBridger) Connect(_, to *Engine) (transport.Transport, error) {
	t, err := transport.NewInproc(to.Dispatch, b.low, b.high)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.created = append(b.created, t)
	b.mu.Unlock()
	return t, nil
}

// Close implements Bridger.
func (b *InprocBridger) Close() error {
	b.mu.Lock()
	created := b.created
	b.created = nil
	b.mu.Unlock()
	var first error
	for _, t := range created {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// bridgeListener is the slice of listener behavior the bridger needs; both
// transport.Listener and transport.ResilientListener satisfy it.
type bridgeListener interface {
	Addr() string
	Close() error
}

// TCPBridger connects engines over loopback (or LAN) TCP: one listener per
// receiving engine, one dialed connection per engine pair. It exercises
// the real wire path — framing, CRC, kernel buffers, TCP flow control.
//
// A bridger built with NewResilientTCPBridger uses the resilient endpoints
// instead: links auto-reconnect with backoff, journal unacked frames for
// redelivery, and dedup per link, so a job survives connection cuts and
// partitions with no loss or duplication.
type TCPBridger struct {
	opts  transport.TCPOptions
	ropts *transport.ResilientOptions // non-nil selects resilient endpoints

	//neptune:lock bridge-tcp
	mu        sync.Mutex
	listeners map[string]bridgeListener // engine name -> listener
	addrs     map[string]string
	clients   []transport.Transport
	// Resilient links are keyed by (sender engine, receiver engine) name
	// pair so a supervised Reconnect can replace exactly the link it
	// rebuilds — health entries must not go stale after a re-deploy.
	links     map[[2]string]*transport.Resilient
	linkOrder [][2]string // deterministic LinkHealth order
}

// NewTCPBridger creates a TCP bridger with the given transport options.
func NewTCPBridger(opts transport.TCPOptions) *TCPBridger {
	return &TCPBridger{
		opts:      opts,
		listeners: make(map[string]bridgeListener),
		addrs:     make(map[string]string),
		links:     make(map[[2]string]*transport.Resilient),
	}
}

// NewResilientTCPBridger creates a TCP bridger whose links are resilient:
// dialed with backoff-and-retry, journaled for redelivery across
// reconnects, and deduplicated at the receiver. opts.Metrics and
// opts.LinkID are managed per link by the bridger (each sender engine's
// registry receives its links' reconnect/redelivery counters; link ids must
// be unique) and should be left zero.
func NewResilientTCPBridger(opts transport.ResilientOptions) *TCPBridger {
	b := NewTCPBridger(opts.TCP)
	b.ropts = &opts
	return b
}

// listenerAddr returns the listen address for the named engine, creating
// the listener on first use (and after a DropEngine).
func (b *TCPBridger) listenerAddr(to *Engine) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	addr, ok := b.addrs[to.Name()]
	if ok {
		return addr, nil
	}
	var (
		ln  bridgeListener
		err error
	)
	if b.ropts != nil {
		lopts := *b.ropts
		lopts.Metrics = to.Metrics()
		// Control frames arriving from upstream dialers (heartbeats,
		// barrier markers) land on the receiving engine's bus; the
		// listener's broadcast is the engine's uplink for advertisements
		// traveling the other way.
		lopts.ControlHandler = func(p []byte) { to.deliverRemoteControl(p, false) }
		var rln *transport.ResilientListener
		rln, err = transport.ListenResilient("127.0.0.1:0", to.Dispatch, lopts)
		if err == nil {
			to.registerUplink(listenerPeer, rln)
			ln = rln
		}
	} else {
		ln, err = transport.Listen("127.0.0.1:0", to.Dispatch, b.opts)
	}
	if err != nil {
		return "", err
	}
	b.listeners[to.Name()] = ln
	addr = ln.Addr()
	b.addrs[to.Name()] = addr
	return addr, nil
}

// Connect implements Bridger.
func (b *TCPBridger) Connect(from, to *Engine) (transport.Transport, error) {
	addr, err := b.listenerAddr(to)
	if err != nil {
		return nil, err
	}
	var t transport.Transport
	if b.ropts != nil {
		dopts := *b.ropts
		dopts.Metrics = from.Metrics()
		dopts.LinkID = 0 // unique random id per link
		// Control frames coming back on this link (watermark
		// advertisements, credit grants) originate downstream; the dialer
		// itself is the sender's downlink for heartbeats and markers.
		dopts.ControlHandler = func(p []byte) { from.deliverRemoteControl(p, true) }
		r, err := transport.DialResilient(addr, nil, dopts)
		if err != nil {
			return nil, err
		}
		from.registerDownlink(to.Name(), r)
		key := [2]string{from.Name(), to.Name()}
		b.mu.Lock()
		if _, seen := b.links[key]; !seen {
			b.linkOrder = append(b.linkOrder, key)
		}
		b.links[key] = r
		b.mu.Unlock()
		t = r
	} else {
		t, err = transport.Dial(addr, nil, b.opts)
		if err != nil {
			return nil, err
		}
	}
	b.mu.Lock()
	b.clients = append(b.clients, t)
	b.mu.Unlock()
	return t, nil
}

// Reconnect rebuilds the resilient link between two engines after a
// supervised restart: the old link is closed, and a new one is dialed with
// the same link id but a bumped recovery epoch, so the receiver rewinds
// its per-link dedup state and accepts the replayed frame sequence from
// the start. The bridger's health entry for the pair is replaced, not
// appended — Job.LinkHealth never reports the dead link's state.
func (b *TCPBridger) Reconnect(from, to *Engine, epoch uint64) (transport.Transport, error) {
	if b.ropts == nil {
		return nil, errors.New("core: recovery requires a resilient bridger")
	}
	key := [2]string{from.Name(), to.Name()}
	b.mu.Lock()
	old := b.links[key]
	b.mu.Unlock()
	var linkID uint64
	if old != nil {
		linkID = old.LinkID()
		if err := old.Close(); err != nil && !errors.Is(err, transport.ErrClosed) {
			return nil, err
		}
	}
	addr, err := b.listenerAddr(to)
	if err != nil {
		return nil, err
	}
	dopts := *b.ropts
	dopts.Metrics = from.Metrics()
	dopts.LinkID = linkID
	dopts.Epoch = epoch
	dopts.ControlHandler = func(p []byte) { from.deliverRemoteControl(p, true) }
	r, err := transport.DialResilient(addr, nil, dopts)
	if err != nil {
		return nil, err
	}
	from.registerDownlink(to.Name(), r)
	b.mu.Lock()
	if _, seen := b.links[key]; !seen {
		b.linkOrder = append(b.linkOrder, key)
	}
	b.links[key] = r
	b.clients = append(b.clients, r)
	b.mu.Unlock()
	return r, nil
}

// DropEngine tears down the listener of a crashed engine, severing every
// inbound connection to it, as the death of its process would. A later
// Reconnect toward the engine recreates the listener lazily.
func (b *TCPBridger) DropEngine(name string) error {
	b.mu.Lock()
	ln := b.listeners[name]
	delete(b.listeners, name)
	delete(b.addrs, name)
	b.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// LinkHealth reports per-link health snapshots. Only resilient links track
// health; a plain TCP bridger reports nil.
func (b *TCPBridger) LinkHealth() []transport.LinkHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.links) == 0 {
		return nil
	}
	out := make([]transport.LinkHealth, 0, len(b.links))
	for _, key := range b.linkOrder {
		out = append(out, b.links[key].Health())
	}
	return out
}

// Close implements Bridger.
func (b *TCPBridger) Close() error {
	b.mu.Lock()
	clients := b.clients
	b.clients = nil
	// b.links is kept: LinkHealth stays queryable after Close so a
	// finished job's reconnect/redelivery counts can be inspected.
	listeners := b.listeners
	b.listeners = make(map[string]bridgeListener)
	b.addrs = make(map[string]string)
	b.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, l := range listeners {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Placement maps an operator instance to the index of its hosting engine.
type Placement func(op string, instance int) int

// Job is a deployed stream processing graph: operator instances placed on
// one or more engines, links wired with partitioners and buffers, source
// pumps running.
type Job struct {
	spec    *graph.Spec
	cfg     Config
	sources map[string]SourceFactory
	procs   map[string]ProcessorFactory

	engines   []*Engine
	bridger   Bridger
	instances []*instance
	byOp      map[string][]*instance
	order     []string // topological operator order for draining

	// transports maps (sender engine, receiver engine) name pairs to the
	// live transport for that pair. The supervisor replaces entries when
	// it rebuilds links after a crash; trMu guards the map against the
	// concurrent reads in Drain's settle checks.
	//neptune:lock job-links
	trMu       sync.Mutex
	transports map[[2]string]transport.Transport

	nextChannel uint32

	launched    bool
	stopped     atomic.Bool
	sourcesLeft atomic.Int64
	sourcesDone chan struct{}

	// drainSlack absorbs the frame-accounting gap a crash leaves behind:
	// frames counted as sent whose receiving engine died before
	// dispatching them can never be counted as received, so the settle
	// check credits the receiver with this many frames.
	drainSlack atomic.Uint64

	//neptune:lock job-sup
	supMu sync.Mutex
	sup   *Supervisor

	// rebuildMu orders supervised recovery's rewiring of instance fields
	// (proc, source, dataset) against job-level goroutines that read them
	// concurrently — the flow refresher and FlowHealth. Writers hold the
	// write lock only around plain assignments; readers copy the pointers
	// out under the read lock. Engine-local readers (workers, checkpoint
	// barriers) are already ordered by worker joins and the supervisor
	// mutex and do not take it.
	//neptune:lock job-rebuild
	rebuildMu sync.RWMutex

	// Flow-signal wiring (Config.FlowSignals, controlplane.go): the
	// refresher's stop channel, the bus subscription cancels, the
	// operator -> upstream-source reachability map, and the sources each
	// engine hosts.
	flowStop        chan struct{}
	flowOnce        sync.Once
	flowCancels     []func()
	upSources       map[string]map[string]bool
	flowSrcByEngine map[*Engine][]*instance

	// qos is the latency-aware adaptive runtime (Config.LatencyTarget,
	// qos.go); nil for untargeted jobs.
	qos *jobQoS

	firstErr errOnce
}

// Launch errors.
var (
	ErrMissingFactory = errors.New("core: operator has no factory")
	ErrAlreadyRunning = errors.New("core: job already launched")
	ErrDrainTimeout   = errors.New("core: drain timed out")
)

// NewJob creates an undeployed job for the given (normalized, validated)
// graph spec and config.
func NewJob(spec *graph.Spec, cfg Config) (*Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Job{
		spec:        spec,
		cfg:         cfg,
		sources:     make(map[string]SourceFactory),
		procs:       make(map[string]ProcessorFactory),
		byOp:        make(map[string][]*instance),
		sourcesDone: make(chan struct{}),
	}, nil
}

// SetSource installs the factory for a source operator.
func (j *Job) SetSource(op string, f SourceFactory) *Job {
	j.sources[op] = f
	return j
}

// SetProcessor installs the factory for a processor operator.
func (j *Job) SetProcessor(op string, f ProcessorFactory) *Job {
	j.procs[op] = f
	return j
}

// Spec returns the job's graph.
func (j *Job) Spec() *graph.Spec { return j.spec }

// Config returns the job's configuration.
func (j *Job) Config() Config { return j.cfg }

// Launch deploys the whole job on a single fresh engine — the common
// single-node case.
func (j *Job) Launch() error {
	e, err := NewEngine(j.spec.Name, j.cfg)
	if err != nil {
		return err
	}
	return j.LaunchOn([]*Engine{e}, func(string, int) int { return 0 }, nil)
}

// LaunchOn deploys the job across the given engines. place assigns each
// operator instance an engine index; bridger connects engines that
// exchange traffic (nil defaults to in-process bridging). Engines must be
// freshly created with the same Config as the job.
func (j *Job) LaunchOn(engines []*Engine, place Placement, bridger Bridger) error {
	if j.launched {
		return ErrAlreadyRunning
	}
	if len(engines) == 0 {
		return errors.New("core: no engines")
	}
	if place == nil {
		place = func(string, int) int { return 0 }
	}
	if bridger == nil {
		bridger = NewInprocBridger(j.cfg.OutLowWatermark, j.cfg.OutHighWatermark)
	}
	j.engines = engines
	j.bridger = bridger

	stages, err := j.spec.Stages()
	if err != nil {
		return err
	}
	j.order = orderByStage(j.spec, stages)

	// 1. Instantiate every operator instance on its engine.
	for _, opName := range j.order {
		op := *j.spec.Operator(opName)
		for idx := 0; idx < op.Parallelism; idx++ {
			eIdx := place(op.Name, idx)
			if eIdx < 0 || eIdx >= len(engines) {
				return fmt.Errorf("core: placement of %s[%d] -> engine %d out of range", op.Name, idx, eIdx)
			}
			e := engines[eIdx]
			var src Source
			var proc Processor
			if op.Kind == graph.KindSource {
				f, ok := j.sources[op.Name]
				if !ok {
					return fmt.Errorf("%w: source %q", ErrMissingFactory, op.Name)
				}
				src = f(idx)
			} else {
				f, ok := j.procs[op.Name]
				if !ok {
					return fmt.Errorf("%w: processor %q", ErrMissingFactory, op.Name)
				}
				proc = f(idx)
			}
			inst, err := newInstance(e, op, idx, src, proc)
			if err != nil {
				return err
			}
			j.instances = append(j.instances, inst)
			j.byOp[op.Name] = append(j.byOp[op.Name], inst)
		}
	}

	// 2. Wire links: per sender instance, one partitioner and one
	// destination (buffer + delivery path) per receiver instance.
	j.transports = make(map[[2]string]transport.Transport)
	for _, link := range j.spec.Links {
		receivers := j.byOp[link.To]
		for _, sender := range j.byOp[link.From] {
			part, err := graph.ResolvePartitioner(link.Partitioner)
			if err != nil {
				return err
			}
			dests := make([]*destination, len(receivers))
			for ri, recv := range receivers {
				ch := j.nextChannel
				j.nextChannel++
				d := &destination{
					channel:  ch,
					streamID: ch,
					sender:   sender,
					recv:     recv,
				}
				if recv.engine == sender.engine {
					d.local = recv
				} else {
					key := [2]string{sender.engine.Name(), recv.engine.Name()}
					tr, ok := j.transports[key]
					if !ok {
						tr, err = bridger.Connect(sender.engine, recv.engine)
						if err != nil {
							return err
						}
						j.transports[key] = tr
						wireControlPeers(sender.engine, recv.engine, tr)
					}
					d.setTransport(tr)
					d.sel = sender.engine.newSelective()
					if err := recv.engine.registerChannel(ch, recv); err != nil {
						return err
					}
				}
				d.buf = buffer.New(j.cfg.BufferSize, j.cfg.FlushInterval, d.flush)
				dests[ri] = d
			}
			sender.addOut(link, part, dests)
		}
	}
	for _, inst := range j.instances {
		inst.markSinkIfTerminal()
	}
	j.setupFlowSignals()
	j.setupQoS()

	// 3. Register processor tasks and deploy the engines.
	for _, inst := range j.instances {
		if inst.proc != nil {
			var strategy granules.Strategy = granules.DataDriven{}
			if tp, ok := inst.proc.(TickingProcessor); ok && tp.TickInterval() > 0 {
				strategy = granules.Combined{Data: granules.DataDriven{}, Every: tp.TickInterval()}
			}
			if err := inst.engine.Resource().Register(inst, strategy); err != nil {
				return err
			}
		}
	}
	for _, e := range engines {
		if err := e.deploy(); err != nil {
			return err
		}
	}

	// 4. Start source pumps.
	nSources := 0
	for _, inst := range j.instances {
		if inst.source != nil {
			nSources++
		}
	}
	j.sourcesLeft.Store(int64(nSources))
	if nSources == 0 {
		close(j.sourcesDone)
	}
	for _, inst := range j.instances {
		if inst.source == nil {
			continue
		}
		inst.startPump(func(err error) {
			j.firstErr.set(err)
			if j.sourcesLeft.Add(-1) == 0 {
				close(j.sourcesDone)
			}
		})
	}
	j.launched = true
	// Checkpointing and membership both require a running supervisor;
	// replay logs are only armed when checkpointing asks for them — a
	// membership-only job gets liveness, fencing, and quorum handling
	// without the recovery machinery's memory cost.
	if j.cfg.Checkpoint.Enabled() || j.cfg.Membership.Enabled {
		if _, err := j.Supervise(SupervisorOptions{
			Interval:       j.cfg.Checkpoint.Interval,
			Store:          j.cfg.Checkpoint.Store,
			Heartbeat:      j.cfg.Checkpoint.Heartbeat,
			Misses:         j.cfg.Checkpoint.Misses,
			BarrierTimeout: j.cfg.Checkpoint.BarrierTimeout,
			Replay:         j.cfg.Checkpoint.Enabled(),
		}); err != nil {
			return err
		}
	}
	return nil
}

// orderByStage sorts operator names by stage number (sources first).
func orderByStage(spec *graph.Spec, stages map[string]int) []string {
	names := make([]string, 0, len(spec.Operators))
	for i := range spec.Operators {
		names = append(names, spec.Operators[i].Name)
	}
	// Insertion sort by (stage, name) — graphs are small.
	for i := 1; i < len(names); i++ {
		for k := i; k > 0; k-- {
			a, b := names[k-1], names[k]
			if stages[a] > stages[b] || (stages[a] == stages[b] && a > b) {
				names[k-1], names[k] = b, a
			} else {
				break
			}
		}
	}
	return names
}

// WaitSources blocks until every source pump has exited (all sources
// returned io.EOF or the job stopped), or the timeout elapses. It reports
// whether the sources finished.
func (j *Job) WaitSources(timeout time.Duration) bool {
	select {
	case <-j.sourcesDone:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Drain flushes every outbound buffer and waits until all in-flight
// packets are processed. Sources must have finished (or been stopped)
// first. Drain is the paper's no-loss guarantee made operational: every
// emitted packet is processed before the job reports completion.
func (j *Job) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// Frames in kernel socket buffers are invisible to every sender- and
	// receiver-side check below: the sender has flushed them (InFlight is
	// zero) but the receiver's read loop has not dispatched them yet. A
	// single quiet pass can complete in microseconds when all engines are
	// idle, well inside that window — so Drain only returns after two
	// consecutive quiet passes, separated by a real sleep, observe the same
	// received-frame count.
	quietRcv := uint64(0)
	havePass := false
	for {
		rcvBefore := j.receivedFrames()
		for _, opName := range j.order {
			for _, inst := range j.byOp[opName] {
				inst.flushOuts()
			}
		}
		quiet := true
		for _, e := range j.engines {
			if !e.quiesce(50 * time.Millisecond) {
				quiet = false
			}
		}
		pass := false
		if quiet && j.transportsSettled() {
			drained := true
			for _, inst := range j.instances {
				if !inst.outsEmpty() || !inst.inEmpty() {
					drained = false
					break
				}
			}
			pass = drained && j.transportsSettled() && j.receivedFrames() == rcvBefore
		}
		if pass {
			if havePass && quietRcv == rcvBefore {
				return nil
			}
			havePass = true
			quietRcv = rcvBefore
		} else {
			havePass = false
		}
		if time.Now().After(deadline) {
			return ErrDrainTimeout
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// receivedFrames sums dispatched frames across the job's engines.
func (j *Job) receivedFrames() uint64 {
	var received uint64
	for _, e := range j.engines {
		received += e.metrics.Counter("frames_in").Value()
	}
	return received
}

// transportsSettled reports whether every remotely-sent frame has been
// dispatched on its receiving engine: frames still queued in a transport
// (or in kernel socket buffers) are invisible to the buffer/dataset
// emptiness checks, so Drain must also wait for the sent and received
// frame counts to agree.
func (j *Job) transportsSettled() bool {
	// Transports that can report their own in-flight count are asked
	// directly — the counter comparison below tolerates received > sent
	// (injected or duplicated traffic), and that tolerance would otherwise
	// let one out-of-job frame mask one genuinely in-flight frame.
	j.trMu.Lock()
	trs := make([]transport.Transport, 0, len(j.transports))
	for _, tr := range j.transports {
		trs = append(trs, tr)
	}
	j.trMu.Unlock()
	for _, tr := range trs {
		if f, ok := tr.(interface{ InFlight() int }); ok && f.InFlight() > 0 {
			return false
		}
	}
	var sent, received uint64
	for _, e := range j.engines {
		sent += e.metrics.Counter("batches_out").Value()
		received += e.metrics.Counter("frames_in").Value()
	}
	// received can exceed sent when frames arrive from outside the job
	// (e.g. injected or duplicated traffic); only frames still in flight
	// (received < sent) block the drain. drainSlack credits the receiver
	// for frames whose receiving engine crashed before dispatching them —
	// they are gone and will never be counted.
	return received+j.drainSlack.Load() >= sent
}

// engineDown returns the name of a crashed (closed) engine, or "" when
// all engines are up. Checkpoint barriers consult it because a crashed
// engine's listener still acks inbound frames while Dispatch drops them
// — a drain can look complete without being one.
func (j *Job) engineDown() string {
	for _, e := range j.engines {
		if e.closed.Load() {
			return e.name
		}
	}
	return ""
}

// pauseSources arms every source pump's pause gate.
func (j *Job) pauseSources() {
	for _, inst := range j.instances {
		if inst.source != nil {
			inst.pause()
		}
	}
}

// resumeSources releases every parked source pump.
func (j *Job) resumeSources() {
	for _, inst := range j.instances {
		if inst.source != nil {
			inst.resume()
		}
	}
}

// waitSourcesParked waits until every source pump is parked at its pause
// gate (or has exited), reporting whether that happened before timeout. A
// pump blocked in a downstream Send can take a while to reach the gate;
// recovery proceeds anyway after the timeout because closing the dead
// engine's transports fails such sends fast.
func (j *Job) waitSourcesParked(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		parked := true
		for _, inst := range j.instances {
			if inst.source != nil && !inst.parked() {
				parked = false
				break
			}
		}
		if parked {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// supervisor returns the attached supervisor, if any.
func (j *Job) supervisor() *Supervisor {
	j.supMu.Lock()
	defer j.supMu.Unlock()
	return j.sup
}

// Supervisor returns the supervisor attached to this job — by Supervise or
// automatically at launch when Config.Checkpoint is enabled — or nil when
// the job is unsupervised.
func (j *Job) Supervisor() *Supervisor { return j.supervisor() }

// engineByName finds a hosting engine by name.
func (j *Job) engineByName(name string) *Engine {
	for _, e := range j.engines {
		if e.Name() == name {
			return e
		}
	}
	return nil
}

// transportPairs snapshots the (sender, receiver) engine-name pairs that
// currently have a live transport.
func (j *Job) transportPairs() [][2]string {
	j.trMu.Lock()
	defer j.trMu.Unlock()
	pairs := make([][2]string, 0, len(j.transports))
	for key := range j.transports {
		pairs = append(pairs, key)
	}
	return pairs
}

func (j *Job) transportFor(key [2]string) transport.Transport {
	j.trMu.Lock()
	defer j.trMu.Unlock()
	return j.transports[key]
}

func (j *Job) replaceTransport(key [2]string, tr transport.Transport) {
	j.trMu.Lock()
	j.transports[key] = tr
	j.trMu.Unlock()
}

// StopSources asks all source pumps to wind down and waits for them.
func (j *Job) StopSources() {
	for _, inst := range j.instances {
		if inst.source != nil {
			inst.stop()
		}
	}
	for _, inst := range j.instances {
		if inst.source != nil {
			inst.waitPump()
		}
	}
}

// Stop gracefully shuts the job down: stop sources, drain in-flight data
// (bounded by timeout), then tear down buffers, datasets, engines, and
// transports. The returned error is the first pump/processing/verification
// error observed during the run, drain timeout included.
func (j *Job) Stop(timeout time.Duration) error {
	if !j.launched || !j.stopped.CompareAndSwap(false, true) {
		return nil
	}
	if s := j.supervisor(); s != nil {
		// Stop supervision first: a monitor mid-recovery finishes, and no
		// new recovery or checkpoint can start under the teardown.
		s.shutdown()
	}
	// Stop the QoS loop before the sources: a chain flip in progress
	// completes (releasing its paused sources), and no new flip can
	// park a source while StopSources waits for the pumps.
	j.stopQoS()
	j.stopFlow()
	j.StopSources()
	if err := j.Drain(timeout); err != nil {
		j.firstErr.set(err)
	}
	for _, inst := range j.instances {
		inst.closeOuts()
	}
	for _, e := range j.engines {
		if err := e.close(); err != nil {
			j.firstErr.set(err)
		}
	}
	j.scanLinkErrors()
	if err := j.bridger.Close(); err != nil {
		j.firstErr.set(err)
	}
	for _, inst := range j.instances {
		j.firstErr.set(inst.PumpError())
		j.firstErr.set(inst.VerifyError())
	}
	return j.firstErr.get()
}

// scanLinkErrors surfaces terminal transport failures (a link that
// exhausted MaxAttempts and gave up) as job errors: data was lost, and a
// job that completes without reporting it would be claiming a delivery
// guarantee it broke.
func (j *Job) scanLinkErrors() {
	for _, h := range j.LinkHealth() {
		if h.Err != nil {
			j.firstErr.set(fmt.Errorf("core: link %s: %w", h.Addr, h.Err))
		}
	}
}

// Err returns the first error observed so far without stopping the job.
func (j *Job) Err() error {
	for _, inst := range j.instances {
		if err := inst.VerifyError(); err != nil {
			return err
		}
	}
	for _, h := range j.LinkHealth() {
		if h.Err != nil {
			return fmt.Errorf("core: link %s: %w", h.Addr, h.Err)
		}
	}
	return j.firstErr.get()
}

// Engines returns the engines hosting the job.
func (j *Job) Engines() []*Engine { return j.engines }

// LinkHealthReporter is implemented by bridgers that track per-link
// transport health (the resilient TCP bridger).
type LinkHealthReporter interface {
	LinkHealth() []transport.LinkHealth
}

// LinkHealth reports the health of every inter-engine link — state,
// reconnects, redelivered/shed frames, replay-buffer occupancy. It returns
// nil when the job's bridger does not track link health (in-process or
// plain TCP bridging).
func (j *Job) LinkHealth() []transport.LinkHealth {
	if r, ok := j.bridger.(LinkHealthReporter); ok {
		return r.LinkHealth()
	}
	return nil
}

// Instances reports the instance count of the named operator.
func (j *Job) Instances(op string) int { return len(j.byOp[op]) }

// OperatorCounter sums the named per-operator counter (".processed",
// ".emitted", ".batches", ".errors") across all engines.
func (j *Job) OperatorCounter(op, suffix string) uint64 {
	var total uint64
	for _, e := range j.engines {
		total += e.metrics.Counter(op + suffix).Value()
	}
	return total
}

// LatencySnapshot returns the latency histogram snapshot of the named sink
// operator on the engine hosting its first instance.
func (j *Job) LatencySnapshot(op string) (snap struct {
	Count  uint64
	MeanNs float64
	P50Ns  int64
	P99Ns  int64
	MaxNs  int64
}) {
	insts := j.byOp[op]
	if len(insts) == 0 || !insts[0].isSink {
		return
	}
	// All instances of op on the same engine share one histogram; merge
	// across engines by taking each engine's histogram once.
	seen := make(map[*Engine]bool)
	var count uint64
	var meanSum float64
	var p50, p99, max int64
	for _, inst := range insts {
		if seen[inst.engine] {
			continue
		}
		seen[inst.engine] = true
		h := inst.engine.metrics.Histogram(op + ".latency_ns").Snapshot()
		count += h.Count
		meanSum += h.Mean * float64(h.Count)
		if h.P50 > p50 {
			p50 = h.P50
		}
		if h.P99 > p99 {
			p99 = h.P99
		}
		if h.Max > max {
			max = h.Max
		}
	}
	snap.Count = count
	if count > 0 {
		snap.MeanNs = meanSum / float64(count)
	}
	snap.P50Ns, snap.P99Ns, snap.MaxNs = p50, p99, max
	return
}
