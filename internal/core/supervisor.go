package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/checkpoint"
	"repro/internal/control"
	"repro/internal/granules"
	"repro/internal/membership"
	"repro/internal/transport"
)

// RecoveryBridger is the bridger contract supervised recovery needs on top
// of plain bridging: rebuilding the links that touched a crashed engine
// (with a bumped recovery epoch so receivers rewind link dedup state) and
// tearing down the crashed engine's listener. The resilient TCP bridger
// implements it.
type RecoveryBridger interface {
	Bridger
	LinkHealthReporter
	// Reconnect replaces the link from -> to with a fresh one carrying the
	// given recovery epoch, preserving the link id.
	Reconnect(from, to *Engine, epoch uint64) (transport.Transport, error)
	// DropEngine closes the named engine's listener (its process died).
	DropEngine(name string) error
}

// SupervisorOptions tunes an attached supervisor. Zero values select the
// defaults documented on CheckpointConfig.
type SupervisorOptions struct {
	Interval       time.Duration    // checkpoint period; <= 0 disables periodic epochs
	Store          checkpoint.Store // nil selects an in-memory store
	Heartbeat      time.Duration    // liveness beacon period (default 10ms)
	Misses         int              // missed beats before an engine is declared dead (default 4)
	BarrierTimeout time.Duration    // checkpoint barrier / recovery settle bound (default 5s)
	// SaveRetries bounds how many times one epoch's Save is attempted
	// before the epoch is skipped (default 3). SaveBackoff is the base
	// backoff between attempts, doubling per retry (default 5ms); the
	// whole persist phase — attempts, backoffs, and a stalled Save —
	// is additionally bounded by BarrierTimeout so a hung store can
	// never wedge the stop-the-world barrier.
	SaveRetries int
	SaveBackoff time.Duration
	// Replay arms per-destination replay logs and re-sends them to a
	// revived engine. Without it, recovery is restart-only: the operator
	// comes back empty (or checkpoint-restored) and in-flight data since
	// the last epoch is lost.
	Replay bool
}

// Supervisor watches a launched job for dead resources and drives crash
// recovery: it heartbeats every engine, periodically checkpoints all
// operator state behind a stop-the-world barrier, and when an engine stops
// beating — a missed-heartbeat crash or an injected kill — re-deploys the
// engine's tasks on a fresh Granules resource, restores the latest
// consistent checkpoint epoch, rebuilds the engine's links under a new
// recovery epoch, and replays upstream traffic retained since the last
// barrier. Deterministic stateful operators recover effectively-once;
// opaque operators recover at-least-once (DESIGN §8.1).
type Supervisor struct {
	j    *Job
	opts SupervisorOptions

	// mu serializes checkpoint epochs, recoveries, and shutdown: at most
	// one global state transition at a time. It is the outermost lock of
	// the whole tree: recovery holds it across engine revival, link
	// rebuilds, and membership rejoin.
	//neptune:lock sup
	mu    sync.Mutex
	epoch uint64 // last completed checkpoint epoch (under mu)

	linkEpoch atomic.Uint64 // recovery generation stamped into rebuilt links

	// ckptErr holds the error of the most recent checkpoint epoch while
	// the supervisor is degraded (the epoch was skipped); nil once an
	// epoch commits again. Surfaced via RecoveryHealth.LastCheckpointErr.
	ckptErr atomic.Pointer[error]

	beats   []atomic.Int64 // receipt time of last heartbeat per engine, unix nanos
	cancels []func()       // control-bus heartbeat subscriptions
	closed  atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// Membership layer (Config.Membership, membership.go): one node per
	// engine, the previous member states the monitor diffed against (for
	// eviction fencing), the sequence feeding quorum-loss source holds,
	// and whether the job is currently degraded. nodes is nil when
	// membership is disabled.
	nodes      []*membership.Node
	memberPrev map[string]membership.State
	holdSeq    atomic.Uint64
	degraded   atomic.Bool
	formed     atomic.Bool // quorum reached at least once
}

// Supervision errors.
var (
	ErrNotLaunched       = errors.New("core: supervise requires a launched job")
	ErrAlreadySupervised = errors.New("core: job already supervised")
	ErrSupervisorClosed  = errors.New("core: supervisor closed")
)

// Supervise attaches a supervisor to a launched job and starts its
// heartbeat, monitor, and (when Interval > 0) checkpoint loops. Jobs
// launched with a non-zero Config.Checkpoint are supervised automatically;
// manual attachment exists for tests and for restart-only supervision
// (Replay false, no store).
func (j *Job) Supervise(opts SupervisorOptions) (*Supervisor, error) {
	if !j.launched {
		return nil, ErrNotLaunched
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.Misses <= 0 {
		opts.Misses = DefaultHeartbeatMisses
	}
	if opts.BarrierTimeout <= 0 {
		opts.BarrierTimeout = DefaultBarrierTimeout
	}
	if opts.SaveRetries <= 0 {
		opts.SaveRetries = DefaultSaveRetries
	}
	if opts.SaveBackoff <= 0 {
		opts.SaveBackoff = DefaultSaveBackoff
	}
	if opts.Store == nil {
		opts.Store = checkpoint.NewMemStore(0)
	}
	s := &Supervisor{
		j:      j,
		opts:   opts,
		beats:  make([]atomic.Int64, len(j.engines)),
		stopCh: make(chan struct{}),
	}
	j.supMu.Lock()
	if j.sup != nil {
		j.supMu.Unlock()
		return nil, ErrAlreadySupervised
	}
	j.sup = s
	j.supMu.Unlock()

	if opts.Replay {
		j.armReplayLogs()
	}

	now := time.Now().UnixNano()
	for i := range j.engines {
		s.beats[i].Store(now)
	}
	// Liveness rides the control plane: each beater publishes a Heartbeat
	// on its engine's bus (and down its links, so beats are observable as
	// control frames over TCP bridgers); the monitor's staleness check
	// reads receipt times recorded by these subscriptions. A beat
	// relayed in from a remote engine refreshes that engine too — any
	// heartbeat that reaches any bus proves its origin was alive.
	byName := make(map[string]int, len(j.engines))
	for i, e := range j.engines {
		byName[e.Name()] = i
	}
	for _, e := range j.engines {
		cancel := e.bus().Subscribe(func(m control.Message) {
			if i, ok := byName[m.Origin]; ok {
				s.beats[i].Store(time.Now().UnixNano())
			}
		}, control.KindHeartbeat)
		s.cancels = append(s.cancels, cancel)
	}
	if j.cfg.Membership.Enabled {
		s.setupMembership()
	}
	for i, e := range j.engines {
		s.wg.Add(1)
		go s.beater(i, e)
	}
	s.wg.Add(1)
	go s.monitor()
	if opts.Interval > 0 {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// armReplayLogs attaches a replay log to every remote destination that
// does not have one yet.
func (j *Job) armReplayLogs() {
	for _, inst := range j.instances {
		for _, l := range inst.outs {
			for _, d := range l.dests {
				if d.local == nil && d.replay.Load() == nil {
					d.replay.Store(&replayLog{})
				}
			}
		}
	}
}

// Epoch reports the last completed checkpoint epoch (0 before the first).
func (s *Supervisor) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Kill injects a crash of the named engine, simulating the abrupt death
// of its process. Detection still flows through the heartbeat path: the
// crashed engine's beacon stops, the monitor notices the missed beats and
// recovers it. Chaos injectors register this as their KillResource hook.
func (s *Supervisor) Kill(name string) error {
	e := s.j.engineByName(name)
	if e == nil {
		return fmt.Errorf("core: kill: no engine %q", name)
	}
	e.crash()
	return nil
}

// shutdown stops supervision: the beater/monitor/checkpoint goroutines
// exit, and any in-flight recovery or checkpoint completes first.
func (s *Supervisor) shutdown() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stopCh)
	s.wg.Wait()
	for _, n := range s.nodes {
		n.Close() // graceful NodeLeave, not a failure peers must detect
	}
	for _, cancel := range s.cancels {
		cancel()
	}
	// Synchronize with (and after) any state transition that was in
	// flight when the flag flipped: acquiring the transition lock once is
	// the happens-before edge the caller's teardown relies on.
	s.mu.Lock()
	s.mu.Unlock() //nolint:staticcheck // empty critical section is the point
}

// beater periodically publishes one engine's liveness beacon on the
// control plane. A crashed engine (dispatch gate closed) stops beating —
// the beacon dies with the "process" — which is what the monitor
// detects; publishControl re-checks the gate so a beat can never be
// published for a crashed engine.
//
// Each period is jittered around Heartbeat (±25%, drawn from a per-engine
// seeded source) so co-started engines never beat in lockstep: an
// adaptive failure detector fed by lockstep beacons under-estimates
// arrival variance and turns trigger-happy the moment scheduling noise
// appears. Under membership, beats carry a relay TTL and travel both
// directions so every engine's detector hears every peer.
func (s *Supervisor) beater(idx int, e *Engine) {
	defer s.wg.Done()
	hb := s.opts.Heartbeat
	rng := rand.New(rand.NewSource(s.j.cfg.Membership.Seed + int64(idx)*7919 + 1))
	next := func() time.Duration {
		return hb - hb/4 + time.Duration(rng.Int63n(int64(hb/2)+1))
	}
	t := time.NewTimer(next())
	defer t.Stop()
	membershipOn := s.nodes != nil
	var seq uint64
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			t.Reset(next())
			if e.closed.Load() {
				continue // crashed: no beacon until the supervisor revives it
			}
			seq++
			m := control.Message{
				Kind:  control.KindHeartbeat,
				Seq:   seq,
				Nanos: time.Now().UnixNano(),
			}
			if membershipOn {
				m.TTL = membershipTTL
				e.publishBoth(m)
			} else {
				e.publishDown(m)
			}
		}
	}
}

// monitor watches heartbeat staleness and triggers recovery.
func (s *Supervisor) monitor() {
	defer s.wg.Done()
	stale := int64(s.opts.Heartbeat) * int64(s.opts.Misses)
	t := time.NewTicker(s.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.membershipTick()
			now := time.Now().UnixNano()
			for i, e := range s.j.engines {
				if now-s.beats[i].Load() <= stale {
					continue
				}
				// Missed-beat detection confirmed by the crash gate: a
				// starved-but-alive engine must not be torn down.
				if !e.closed.Load() {
					continue
				}
				// Under membership, recovery additionally waits for the
				// adaptive detector's verdict: a witness that still rates
				// the engine better than down (heartbeats merely jittered,
				// suspicion refuted) vetoes the teardown.
				if s.membershipVeto(e) {
					continue
				}
				if err := s.recoverEngine(e, &s.beats[i]); err != nil {
					s.j.firstErr.set(fmt.Errorf("core: recovery of %s: %w", e.Name(), err))
				}
			}
		}
	}
}

// checkpointLoop takes a checkpoint every Interval.
func (s *Supervisor) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			// A failed epoch (barrier timeout under load, store error) is
			// skipped: the next tick retries, and Latest falls back to
			// the newest epoch that did complete.
			if err := s.Checkpoint(); err != nil {
				continue
			}
		}
	}
}

// Checkpoint takes one consistent checkpoint epoch: pause every source at
// its gate, drain all in-flight packets, snapshot every instance, persist,
// then clear the replay logs (everything before the barrier is covered by
// the epoch) and resume.
func (s *Supervisor) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrSupervisorClosed
	}
	j := s.j
	if name := j.engineDown(); name != "" {
		return fmt.Errorf("core: checkpoint barrier: engine %q is down", name)
	}
	j.pauseSources()
	defer j.resumeSources()
	if !j.waitSourcesParked(s.opts.BarrierTimeout) {
		return fmt.Errorf("core: checkpoint barrier: sources did not park within %v", s.opts.BarrierTimeout)
	}
	if err := j.Drain(s.opts.BarrierTimeout); err != nil {
		return fmt.Errorf("core: checkpoint barrier: %w", err)
	}
	snap := &checkpoint.Snapshot{Epoch: s.epoch + 1}
	for _, inst := range j.instances {
		ent, err := inst.snapshotEntry()
		if err != nil {
			return err
		}
		snap.Entries = append(snap.Entries, ent)
	}
	// A crash that heartbeat detection has not yet surfaced would poison
	// this epoch: the dead engine's listener acks-and-drops inbound frames
	// (and injected duplicate traffic can mask the resulting drain
	// deficit), while its instances snapshot at their moment-of-crash
	// cursors rather than a drained cut. Committing would then reset
	// replay logs holding the only copies of the swallowed frames. Abort
	// instead — the last good epoch plus the intact replay logs stay
	// authoritative, and recovery restores from those. A crash after this
	// check is benign: the snapshot above is a consistent drained cut, and
	// everything flushed after it lands in the freshly reset replay logs.
	if name := j.engineDown(); name != "" {
		return fmt.Errorf("core: checkpoint barrier: engine %q died during the barrier", name)
	}
	data, err := checkpoint.Encode(snap)
	if err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	if err := s.persistEpoch(snap.Epoch, data); err != nil {
		// Degrade-and-alarm: the epoch is skipped, not fatal. The last
		// good snapshot stays authoritative, the replay logs keep
		// covering everything since it (they are only cleared below, on
		// commit), and processing resumes via the deferred source
		// resume. The next interval retries with the same epoch number.
		s.j.engines[0].metrics.Counter("recovery.skipped_epochs").Inc()
		e := fmt.Errorf("core: save checkpoint epoch %d: %w", snap.Epoch, err)
		s.ckptErr.Store(&e)
		return e
	}
	s.ckptErr.Store(nil)
	s.epoch = snap.Epoch
	j.engines[0].metrics.Counter("recovery.checkpoint_bytes").Add(uint64(len(data)))
	// Announce the completed epoch on the control plane (observability:
	// downstream engines and bus subscribers see which barrier committed).
	for _, e := range j.engines {
		e.publishDown(control.Message{
			Kind:  control.KindBarrierMarker,
			Epoch: snap.Epoch,
			Nanos: time.Now().UnixNano(),
		})
	}
	// Replay logs now hold only post-epoch traffic.
	for _, inst := range j.instances {
		for _, l := range inst.outs {
			for _, d := range l.dests {
				if rl := d.replay.Load(); rl != nil {
					rl.reset()
				}
			}
		}
	}
	return nil
}

// ErrCheckpointTimeout reports that a checkpoint Save outran the barrier
// deadline — the store stalled — and the epoch was aborted so processing
// could resume.
var ErrCheckpointTimeout = errors.New("core: checkpoint save exceeded barrier deadline")

// persistEpoch saves one encoded epoch with bounded retries and
// exponential backoff, the whole phase capped by BarrierTimeout. A Save
// that stalls past the deadline is abandoned (the barrier must not stay
// wedged with sources parked); Store implementations are required to be
// concurrent-safe, and an abandoned Save that eventually succeeds is
// harmless — s.epoch was not advanced and the replay logs were not
// cleared, so the next committed epoch simply overwrites it.
func (s *Supervisor) persistEpoch(epoch uint64, data []byte) error {
	deadline := time.Now().Add(s.opts.BarrierTimeout)
	retries := s.j.engines[0].metrics.Counter("recovery.checkpoint_retries")
	var err error
	for attempt := 0; attempt < s.opts.SaveRetries; attempt++ {
		if attempt > 0 {
			retries.Inc()
			backoff := s.opts.SaveBackoff << (attempt - 1)
			if backoff >= time.Until(deadline) {
				break // no budget left for another attempt
			}
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-s.stopCh:
				t.Stop()
				return ErrSupervisorClosed
			}
		}
		if err = s.saveBounded(epoch, data, deadline); err == nil {
			return nil
		}
		if errors.Is(err, ErrCheckpointTimeout) {
			break // the deadline is burned; retrying cannot fit
		}
	}
	return err
}

// saveBounded runs one Store.Save attempt, bounded by the barrier
// deadline.
func (s *Supervisor) saveBounded(epoch uint64, data []byte, deadline time.Time) error {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ErrCheckpointTimeout
	}
	done := make(chan error, 1)
	//neptune:fireforget Store.Save has no cancellation hook; the buffered done channel lets an abandoned attempt finish and exit on its own after the deadline
	go func() { done <- s.opts.Store.Save(epoch, data) }()
	t := time.NewTimer(remaining)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return ErrCheckpointTimeout
	}
}

// recoverEngine rebuilds one dead engine end to end. Serialized with
// checkpoints and shutdown by s.mu.
func (s *Supervisor) recoverEngine(dead *Engine, beat *atomic.Int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	if !dead.closed.Load() {
		return nil // revived by an earlier pass
	}
	start := time.Now()
	j := s.j
	deadName := dead.Name()
	deadInsts := make([]*instance, 0)
	for _, inst := range j.instances {
		if inst.engine == dead {
			deadInsts = append(deadInsts, inst)
		}
	}

	// 1. Freeze ingress: every live source parks at its pause gate. The
	// gate is re-armed for the dead engine's own pumps too, so their
	// restarted replacements stay parked until recovery finishes.
	j.pauseSources()
	// Whatever happens from here on, sources must not stay wedged: a
	// failed recovery surfaces as a job error, not a hang.
	defer func() {
		beat.Store(time.Now().UnixNano())
		j.resumeSources()
	}()

	// 2. Sever every link touching the dead engine (its process died, so
	// did its sockets). Senders blocked mid-Send fail fast; their frames
	// stay in the replay logs.
	var pairs [][2]string
	for _, key := range j.transportPairs() {
		if key[0] != deadName && key[1] != deadName {
			continue
		}
		pairs = append(pairs, key)
		if tr := j.transportFor(key); tr != nil {
			if err := tr.Close(); err != nil && !errors.Is(err, transport.ErrClosed) {
				j.firstErr.set(err)
			}
		}
	}
	rb, hasRB := j.bridger.(RecoveryBridger)
	if len(pairs) > 0 && !hasRB {
		return errors.New("core: bridger cannot rebuild links (need RecoveryBridger)")
	}
	if hasRB {
		if err := rb.DropEngine(deadName); err != nil {
			j.firstErr.set(err)
		}
	}

	// 3. Finalize the crash (idempotent) and unwind the dead engine's
	// pumps: disarm their gates so they observe stopping and exit.
	dead.crash()
	for _, inst := range deadInsts {
		inst.shutdownInputs()
		inst.closeOuts()
	}
	for _, inst := range deadInsts {
		if inst.source != nil {
			inst.resume()
			inst.waitPump()
		}
	}

	// 4. Park the survivors and let in-flight work settle.
	j.waitSourcesParked(s.opts.BarrierTimeout)
	s.settleSurvivors(dead)

	// 5. Frames sent toward the dead engine that it never dispatched are
	// gone; credit them so Drain's sent==received accounting can still
	// terminate.
	var sent, received uint64
	for _, e := range j.engines {
		sent += e.metrics.Counter("batches_out").Value()
		received += e.metrics.Counter("frames_in").Value()
	}
	if sent > received {
		if gap := sent - received; gap > j.drainSlack.Load() {
			j.drainSlack.Store(gap)
		}
	}

	// 6. Load the newest consistent epoch. No epoch yet means "restore to
	// launch state" — with replay armed that is still consistent, because
	// the replay logs then cover everything since launch.
	snap, err := checkpoint.Latest(s.opts.Store)
	if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return err
	}

	// 7. Revive: fresh resource, fresh operators, fresh datasets and
	// buffers, tasks re-registered and deployed (Open runs here).
	dead.revive()
	if err := s.rebuildInstances(dead, deadInsts); err != nil {
		return err
	}
	if err := dead.deploy(); err != nil {
		return err
	}

	// 8. Restore checkpointed state before any data can arrive: operator
	// blobs, dedup/ordering cursors, emit cursors.
	if snap != nil {
		for i := range snap.Entries {
			ent := &snap.Entries[i]
			inst := dead.instance(ent.Op, ent.Index)
			if inst == nil {
				continue // hosted on a surviving engine; its live state is newer
			}
			if err := inst.restoreEntry(ent); err != nil {
				return err
			}
		}
		// Local links between two rebuilt instances never pass through
		// remote dedup, so restoreEntry's Dedup-seeding cannot reach the
		// receiver's ordering cursors. Seed them from the sender's
		// restored emit cursors instead: the first post-recovery packet
		// on such a link carries exactly the checkpointed sequence.
		for _, inst := range deadInsts {
			for _, l := range inst.outs {
				for _, d := range l.dests {
					if d.local != nil && d.recv.engine == dead && d.recv.expect != nil {
						d.recv.expect[d.streamID] = d.seq
					}
				}
			}
		}
	}

	// 9. Rebuild every severed link under a bumped recovery epoch and swap
	// it into the destinations that used the old one. The epoch makes the
	// receiver rewind its link dedup, so the rebuilt sender's frame
	// sequence (restarting at 1) is accepted; packet-level dedup then
	// handles semantic duplicates.
	if hasRB {
		epoch := s.linkEpoch.Add(1)
		for _, key := range pairs {
			from, to := j.engineByName(key[0]), j.engineByName(key[1])
			if from == nil || to == nil {
				return fmt.Errorf("core: unknown engine in link %v", key)
			}
			tr, err := rb.Reconnect(from, to, epoch)
			if err != nil {
				return err
			}
			j.replaceTransport(key, tr)
			for _, inst := range j.instances {
				if inst.engine != from {
					continue
				}
				for _, l := range inst.outs {
					for _, d := range l.dests {
						if d.local == nil && d.recv.engine == to {
							d.setTransport(tr)
						}
					}
				}
			}
		}
	}

	// 10. Replay: re-send every retained frame whose receiver is the
	// revived engine. Restored dedup cursors accept exactly the packets
	// the crash destroyed; surviving downstream cursors drop the rest.
	if s.opts.Replay {
		var replayed uint64
		for _, inst := range j.instances {
			if inst.engine == dead {
				continue
			}
			for _, l := range inst.outs {
				for _, d := range l.dests {
					if d.local != nil || d.recv.engine != dead {
						continue
					}
					rl := d.replay.Load()
					if rl == nil {
						continue
					}
					frames, counts := rl.snapshot()
					tr := d.transport()
					for i, f := range frames {
						if err := tr.Send(d.channel, f); err != nil {
							return fmt.Errorf("core: replay to %s: %w", d.recv.taskID(), err)
						}
						replayed += uint64(counts[i])
					}
					if len(frames) > 0 {
						inst.engine.metrics.Counter("recovery.replayed_packets").Add(replayed)
						replayed = 0
					}
				}
			}
		}
	}

	// 11. Restart the revived engine's source pumps (re-armed gates keep
	// them parked until the deferred resume). Data their predecessors
	// emitted after the last epoch is lost — sources have no replay log
	// upstream of them; DESIGN §8.1 documents this as at-least-once for
	// crashed-source data.
	for _, inst := range deadInsts {
		if inst.source != nil {
			inst.pause()
			inst.startPump(inst.pumpOnExit)
		}
	}

	// 12. Re-introduce the revived engine to the cluster under a bumped
	// incarnation: peers may have evicted (fenced) the old one, and a
	// fenced identity is only re-admitted at a higher incarnation.
	if n := s.nodeFor(deadName); n != nil {
		n.Rejoin()
	}

	dead.metrics.Counter("recovery.restarts").Inc()
	j.engines[0].metrics.Counter("recovery.restore_ns").Add(uint64(time.Since(start)))
	return nil
}

// settleSurvivors flushes surviving engines' outbound buffers and waits
// until their received-frame counts stabilize, bounded by BarrierTimeout.
func (s *Supervisor) settleSurvivors(dead *Engine) {
	j := s.j
	deadline := time.Now().Add(s.opts.BarrierTimeout)
	var lastRcv uint64
	stable := 0
	for {
		for _, inst := range j.instances {
			if inst.engine != dead {
				inst.flushOuts()
			}
		}
		quiet := true
		for _, e := range j.engines {
			if e != dead && !e.quiesce(20*time.Millisecond) {
				quiet = false
			}
		}
		rcv := j.receivedFrames()
		if quiet && rcv == lastRcv {
			stable++
			if stable >= 2 {
				return
			}
		} else {
			stable = 0
		}
		lastRcv = rcv
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// rebuildInstances resets the dead engine's instances for a fresh deploy:
// new operator values from the job's factories, new datasets on the
// revived resource, new outbound buffers, cleared cursors and replay logs.
func (s *Supervisor) rebuildInstances(dead *Engine, deadInsts []*instance) error {
	j := s.j
	cfg := j.cfg
	for _, inst := range deadInsts {
		if inst.proc != nil {
			f, ok := j.procs[inst.op.Name]
			if !ok {
				return fmt.Errorf("%w: processor %q", ErrMissingFactory, inst.op.Name)
			}
			proc := f(inst.idx)
			ds, err := granules.NewStreamDataset[*inBatch](
				"in", inst.engine.Resource(), inst.taskID(), cfg.InLowWatermark, cfg.InHighWatermark)
			if err != nil {
				return err
			}
			if cfg.FlowSignals {
				ds.SetPressureNotify(j.flowNotify(inst))
			}
			// Publish under rebuildMu: the flow refresher and FlowHealth
			// read these fields from their own goroutines.
			j.rebuildMu.Lock()
			inst.proc = proc
			inst.dataset = ds
			j.rebuildMu.Unlock()
		}
		if inst.source != nil {
			f, ok := j.sources[inst.op.Name]
			if !ok {
				return fmt.Errorf("%w: source %q", ErrMissingFactory, inst.op.Name)
			}
			src := f(inst.idx)
			j.rebuildMu.Lock()
			inst.source = src
			j.rebuildMu.Unlock()
		}
		inst.cur.Store(nil)
		inst.curPos = 0
		inst.staging = false
		inst.stagedDests = inst.stagedDests[:0]
		inst.recycle = inst.recycle[:0]
		inst.lastTick = 0
		inst.stopping.Store(false)
		inst.pumpCrashed.Store(false)
		inst.pumpDone.Store(false)
		inst.closeOp = sync.Once{} // the fresh operator needs its own Close
		if cfg.VerifyOrdering {
			inst.expect = make(map[uint32]uint64)
		}
		if cfg.DedupRemote {
			inst.dedupMu.Lock()
			inst.dedupNext = make(map[uint32]uint64)
			inst.dedupMu.Unlock()
		}
		for _, l := range inst.outs {
			for _, d := range l.dests {
				d.stage = nil
				d.stageBytes = 0
				d.seq = 0
				nb := buffer.New(cfg.BufferSize, cfg.FlushInterval, d.flush)
				// Publish the rebuilt buffer under rebuildMu: the QoS
				// tick loop reads d.buf from its own goroutine.
				j.rebuildMu.Lock()
				d.buf = nb
				j.rebuildMu.Unlock()
				if rl := d.replay.Load(); rl != nil {
					rl.reset() // regenerated output re-fills it
				}
				if j.qos != nil {
					// Re-attach the probe, clear the fused flag, and drop
					// the controller's memory of the link: it re-enters at
					// level 0 like its freshly built buffer.
					j.qos.rearm(d)
				}
			}
		}
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
	return nil
}

// snapshotEntry captures the instance's checkpointable state. Called only
// at a barrier (no execution or pump is in flight).
func (inst *instance) snapshotEntry() (checkpoint.Entry, error) {
	ent := checkpoint.Entry{Op: inst.op.Name, Index: inst.idx}
	if sp, ok := inst.proc.(StatefulProcessor); ok {
		blob, err := sp.SnapshotState(&inst.ctx)
		if err != nil {
			return ent, fmt.Errorf("core: %s snapshot: %w", inst.taskID(), err)
		}
		ent.HasProc = true
		ent.Proc = blob
	}
	inst.dedupMu.Lock()
	if len(inst.dedupNext) > 0 {
		ent.Dedup = make(map[uint32]uint64, len(inst.dedupNext))
		for id, next := range inst.dedupNext {
			ent.Dedup[id] = next
		}
	}
	inst.dedupMu.Unlock()
	for _, l := range inst.outs {
		for _, d := range l.dests {
			ent.DestSeqs = append(ent.DestSeqs, d.seq)
		}
	}
	return ent, nil
}

// restoreEntry applies a checkpointed entry to a freshly rebuilt (and
// Opened) instance: operator blob, receive cursors, emit cursors. The
// ordering-verification cursors are seeded from the dedup cursors so a
// replayed stream that resumes at the checkpointed sequence verifies
// clean.
func (inst *instance) restoreEntry(ent *checkpoint.Entry) error {
	if ent.HasProc {
		sp, ok := inst.proc.(StatefulProcessor)
		if !ok {
			return fmt.Errorf("core: %s: checkpoint has state but operator is not a StatefulProcessor", inst.taskID())
		}
		if err := sp.RestoreState(&inst.ctx, ent.Proc); err != nil {
			return fmt.Errorf("core: %s restore: %w", inst.taskID(), err)
		}
	}
	if len(ent.Dedup) > 0 {
		if inst.dedupNext != nil {
			inst.dedupMu.Lock()
			for id, next := range ent.Dedup {
				inst.dedupNext[id] = next
			}
			inst.dedupMu.Unlock()
		}
		if inst.expect != nil {
			for id, next := range ent.Dedup {
				inst.expect[id] = next
			}
		}
	}
	i := 0
	for _, l := range inst.outs {
		for _, d := range l.dests {
			if i < len(ent.DestSeqs) {
				d.seq = ent.DestSeqs[i]
			}
			i++
		}
	}
	return nil
}

// RecoveryHealth aggregates the recovery metrics of a job.
type RecoveryHealth struct {
	Restarts        uint64 // supervised engine revivals
	ReplayedPackets uint64 // packets re-sent from replay logs
	CheckpointBytes uint64 // encoded snapshot bytes persisted
	RestoreNs       uint64 // total wall time spent in recovery
	Epoch           uint64 // last completed checkpoint epoch

	// Degrade-and-alarm counters for the checkpoint store. Retries are
	// re-attempted Saves within an epoch; SkippedEpochs counts epochs
	// abandoned after the retry budget or barrier deadline ran out —
	// the job kept processing on the last good snapshot each time.
	CheckpointRetries uint64
	SkippedEpochs     uint64
	// CheckpointDegraded is true while the most recent epoch attempt
	// failed; LastCheckpointErr then carries its error.
	CheckpointDegraded bool
	LastCheckpointErr  string
}

// RecoveryHealth reports the job's crash-recovery counters; all zeros when
// the job is not supervised.
func (j *Job) RecoveryHealth() RecoveryHealth {
	var h RecoveryHealth
	for _, e := range j.engines {
		h.Restarts += e.metrics.Counter("recovery.restarts").Value()
		h.ReplayedPackets += e.metrics.Counter("recovery.replayed_packets").Value()
		h.CheckpointBytes += e.metrics.Counter("recovery.checkpoint_bytes").Value()
		h.RestoreNs += e.metrics.Counter("recovery.restore_ns").Value()
		h.CheckpointRetries += e.metrics.Counter("recovery.checkpoint_retries").Value()
		h.SkippedEpochs += e.metrics.Counter("recovery.skipped_epochs").Value()
	}
	if s := j.supervisor(); s != nil {
		h.Epoch = s.Epoch()
		if errp := s.ckptErr.Load(); errp != nil && *errp != nil {
			h.CheckpointDegraded = true
			h.LastCheckpointErr = (*errp).Error()
		}
	}
	return h
}
