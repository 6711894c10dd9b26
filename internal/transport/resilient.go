package transport

import (
	"bufio"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backpressure"
	"repro/internal/control"
	"repro/internal/metrics"
)

// This file implements the resilient transport pair: Resilient (the
// dialing, sending side) and ResilientListener (the accepting, receiving
// side). Together they upgrade the fail-fast TCP transport to
// effectively-once delivery per link across transient faults:
//
//   - Every data frame carries a link sequence number (wire format v2).
//   - The sender journals every admitted, unacked frame in a bounded
//     replay buffer; the receiver acks cumulatively (piggybacked on the v2
//     header), letting the sender trim the journal. The journal holds the
//     caller's buffer itself (Resilient is an OwnedSender) and hands it
//     back through its release callback when the frame leaves.
//   - On any IO error the sender redials with exponential backoff and
//     jitter, replays the journal, and resumes — Send callers never see
//     the outage (they at most block on backpressure).
//   - The receiver keys redelivery state by a per-transport link id
//     (carried in a hello frame), so duplicates are discarded even
//     across reconnections. Dedup by last-seen sequence is sound
//     because TCP delivers in order and the journal replays in order.
//
// When an outage outlives the replay buffer, DegradePolicy chooses
// between blocking senders (default: preserves the no-loss guarantee)
// and shedding the oldest journaled frames (bounds memory and latency,
// admits loss, counts every shed frame). Either way the policy acts at
// admission, on the sending goroutine: the writer never waits for journal
// space, so it stays free to reconnect and replay.

// LinkState describes a resilient link's connectivity.
type LinkState int32

const (
	// LinkConnected means the link has a live connection.
	LinkConnected LinkState = iota
	// LinkReconnecting means the connection failed and the transport is
	// redialing with backoff.
	LinkReconnecting
	// LinkDown means the transport gave up (budget exhausted) or closed.
	LinkDown
)

// String names the state.
func (s LinkState) String() string {
	switch s {
	case LinkConnected:
		return "connected"
	case LinkReconnecting:
		return "reconnecting"
	case LinkDown:
		return "down"
	default:
		return fmt.Sprintf("LinkState(%d)", int32(s))
	}
}

// DegradePolicy chooses what Send does when an outage outlives the
// replay buffer.
type DegradePolicy int

const (
	// DegradeBlock blocks senders until replay space frees (no loss).
	DegradeBlock DegradePolicy = iota
	// DegradeShedOldest drops the oldest unacked frames to admit new
	// ones, trading loss for bounded memory and sender liveness.
	DegradeShedOldest
)

// ResilientOptions configures a resilient transport endpoint.
type ResilientOptions struct {
	// TCP carries the underlying socket options (queue watermarks,
	// write buffer, dial timeout, terminal OnError callback).
	TCP TCPOptions
	// BackoffBase is the first reconnect delay. Zero defaults to 50ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Zero defaults to 2s.
	BackoffMax time.Duration
	// MaxAttempts bounds dial attempts per outage (0 = unlimited).
	MaxAttempts int
	// ReconnectDeadline bounds the total time spent redialing per
	// outage (0 = unlimited). When exceeded the transport goes down
	// and surfaces ErrGaveUp.
	ReconnectDeadline time.Duration
	// ReplayLimit bounds the sent-but-unacked journal in bytes. Zero
	// defaults to 4 MiB.
	ReplayLimit int64
	// Policy picks the behavior when the journal is full (see
	// DegradePolicy). Default: DegradeBlock.
	Policy DegradePolicy
	// AckEvery makes the listener ack every n-th data frame. Zero
	// defaults to 1 (ack every frame — promptest journal trimming).
	AckEvery int
	// AckTimeout bounds how long unacked frames may sit in the journal
	// with no ack progress before the connection is declared dead and
	// redialed. It catches failures TCP cannot surface — e.g. header
	// corruption leaving the receiver blocked on a phantom payload
	// length. Zero defaults to 5s; negative disables the watchdog.
	AckTimeout time.Duration
	// Seed seeds the backoff jitter for deterministic tests. Zero
	// defaults to 1.
	Seed int64
	// LinkID identifies this sender's redelivery state at the
	// receiver across reconnections. Zero picks a random id.
	LinkID uint64
	// Epoch tags the link's hello handshake with a recovery generation.
	// When a supervisor rebuilds a link after a process crash it dials
	// with a higher epoch; the listener then rewinds the link's dedup
	// cursor so the rebuilt sender's restarted frame sequence is accepted
	// instead of discarded as stale. Normal reconnects reuse the same
	// epoch, preserving dedup across transient outages. Zero is the
	// default (pre-recovery) epoch.
	Epoch uint64
	// Journal, when non-nil, mirrors the replay journal's lifecycle: it
	// observes every admitted frame and every cumulative-ack trim. This
	// is the persistence hook for write-ahead durability — an
	// implementation can append frames to stable storage and truncate on
	// trim. Callbacks run on transport goroutines outside the journal
	// lock; the payload slice is valid only for the duration of the call
	// (it is the sender's pooled buffer) and must be copied if retained.
	Journal JournalObserver
	// ControlHandler, when non-nil, receives the payload of every
	// inbound control frame (flagControl) on this endpoint. The slice
	// aliases the read buffer and is only valid during the call —
	// decode or copy before returning. Handlers run on the endpoint's
	// IO goroutines and must not block; control traffic is soft state,
	// so a handler may simply drop what it does not understand.
	ControlHandler func(payload []byte)
	// Dialer opens the underlying connection; tests inject faults
	// here. Nil defaults to net.DialTimeout.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// OnStateChange observes link state transitions. May be nil.
	OnStateChange func(LinkState)
	// Metrics, when non-nil, receives the resilience counters:
	// transport.reconnects, transport.redelivered_frames,
	// transport.frames_shed, transport.dup_frames_dropped, and the
	// transport.replay_bytes / transport.replay_frames gauges. Its
	// transport.frames_shed counter is also what Health().Shed reads, so
	// links sharing one registry report their summed shed count.
	Metrics *metrics.Registry
}

func (o *ResilientOptions) defaults() {
	o.TCP.defaults()
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.ReplayLimit <= 0 {
		o.ReplayLimit = 4 << 20
	}
	if o.AckEvery <= 0 {
		o.AckEvery = 1
	}
	if o.AckTimeout == 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LinkID == 0 {
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			o.LinkID = binary.LittleEndian.Uint64(b[:])
		}
		if o.LinkID == 0 {
			o.LinkID = 1
		}
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			if timeout < 0 {
				timeout = 0
			}
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// JournalObserver mirrors a resilient link's replay journal to external
// storage. JournalAppend is invoked as a frame is admitted to the
// in-memory journal, on the sending goroutine, in sequence order; its
// payload is valid only for the duration of the call, because the frame's
// buffer returns to its owner once acked. JournalTrim runs after a
// cumulative ack releases every frame with seq <= ackedThrough.
// Implementations must not block for long: both run on the paths that
// admit frames and read acks.
type JournalObserver interface {
	JournalAppend(seq uint64, channel uint32, payload []byte)
	JournalTrim(ackedThrough uint64)
}

// LinkHealth is a point-in-time snapshot of a resilient link.
type LinkHealth struct {
	Addr         string
	State        LinkState
	Reconnects   uint64
	Redelivered  uint64 // frames replayed after reconnects
	Shed         uint64 // frames dropped by DegradeShedOldest
	DupsDropped  uint64 // inbound duplicates discarded (this endpoint)
	ReplayFrames int    // current journal occupancy
	ReplayBytes  int64
	// LastDisconnect is the IO error that broke the most recent
	// connection (nil if the link has never dropped). Unlike Err it is
	// informational: the link may have long since reconnected.
	LastDisconnect error
	Err            error // terminal error, if the link is down
}

// jframe is one journaled (admitted but unacked) frame. release, when
// non-nil, hands payload back to its owner; it runs exactly once, when
// the frame leaves the journal (ack, shed, close or give-up) — or, if the
// writer is writing the frame at that moment, once the writer is done.
type jframe struct {
	seq     uint64
	channel uint32
	payload []byte
	release func()
}

// Resilient is the reconnecting, redelivering sender side of a link. It
// implements Transport and OwnedSender; Send and SendOwned have the same
// blocking/backpressure semantics as TCP's, but IO errors trigger
// transparent reconnect and journal replay instead of tearing the
// transport down.
type Resilient struct {
	addr    string
	opts    ResilientOptions
	handler Handler
	queue   *backpressure.Queue[Frame]
	stats   statCounters
	linkID  uint64

	// Writer-goroutine-owned connection state (conn/broken are also
	// read by other goroutines under mu / brokenFlag).
	bw *bufio.Writer

	// Declared order: admission holds admitMu while it waits for journal
	// space and pushes to the queue; nothing acquires admitMu under jmu or
	// mu. connFailed releases mu before waking the journal.
	//
	//neptune:lockorder rlink-admit < rlink-journal
	//neptune:lockorder rlink-journal < rlink-state

	// admitMu serializes SendOwned callers from sequence assignment to
	// queue push, so the queue holds frames in sequence order.
	//
	//neptune:lock rlink-admit
	admitMu sync.Mutex
	nextSeq uint64 // last assigned sequence; guarded by admitMu

	//neptune:lock rlink-state
	mu      sync.Mutex
	conn    net.Conn
	broken  bool
	closed  bool
	termErr error
	state   LinkState

	brokenFlag atomic.Bool // lock-free mirror of broken (writer's nudge path)
	closedCh   chan struct{}
	closeOnce  sync.Once // guards close(closedCh): Close and terminate race

	//neptune:lock rlink-journal
	jmu     sync.Mutex
	jcond   *sync.Cond
	jfr     []jframe
	jhead   int
	jbytes  int64
	acked   uint64
	jclosed bool
	// pinLo..pinHi is the sequence range the writer is copying into the
	// connection's write buffer (zero when idle). A frame leaving the
	// journal inside that range parks its release in deferred; the
	// writer runs it when it unpins.
	pinLo, pinHi uint64
	deferred     []func()

	// wrote is the highest sequence the writer has put on a connection
	// (frames at or below it are either acked or covered by the next
	// reconnect's replay). Only the writer stores it; journalAck reads it
	// to ignore acks for frames never written — a peer holding a stale
	// dedup cursor acks past them, and trimming would drop them unsent.
	wrote atomic.Uint64
	snap  []jframe           // replay snapshot; writer-goroutine-owned
	hdr   [headerV2Size]byte // frame header scratch; writer-goroutine-owned

	recvSeq atomic.Uint64 // last inbound data seq delivered (piggyback ack)

	// Outage-scoped reconnect state, owned by the writer goroutine
	// (ready() runs only on it). Reset on every successful reconnect.
	outageAttempts int
	outageStart    time.Time
	nextDialAt     time.Time
	lastDialErr    error
	// lastDisconnect records the IO error behind the most recent
	// connection break; surfaced through LinkHealth. Guarded by mu.
	lastDisconnect error

	reconnects  atomic.Uint64
	redelivered atomic.Uint64
	// shed counts frames dropped by DegradeShedOldest: the registry's
	// transport.frames_shed when Metrics is set, a private counter
	// otherwise — one source of truth for Health().Shed and the metric.
	shed    *metrics.Counter
	dups    atomic.Uint64
	ctrlIn  atomic.Uint64
	ctrlOut atomic.Uint64

	//neptune:lock rlink-rng
	rngMu sync.Mutex
	rng   *rand.Rand

	writerWG  sync.WaitGroup
	readerWG  sync.WaitGroup
	watcherWG sync.WaitGroup
}

// errAckTimeout marks a connection the ack watchdog declared dead.
var errAckTimeout = errors.New("transport: ack progress timeout")

// DialResilient connects to a resilient listener at addr. The initial
// dial is a single attempt (fail fast, like Dial); subsequent outages
// are retried per the backoff/budget options. handler receives inbound
// frames and may be nil for send-only endpoints.
func DialResilient(addr string, handler Handler, opts ResilientOptions) (*Resilient, error) {
	opts.defaults()
	q, err := backpressure.NewQueue[Frame](opts.TCP.OutboundLow, opts.TCP.OutboundHigh)
	if err != nil {
		return nil, err
	}
	r := &Resilient{
		addr:     addr,
		opts:     opts,
		handler:  handler,
		queue:    q,
		linkID:   opts.LinkID,
		closedCh: make(chan struct{}),
		state:    LinkConnected,
		rng:      newSeededRng(opts.Seed),
		shed:     &metrics.Counter{},
	}
	if opts.Metrics != nil {
		r.shed = opts.Metrics.Counter("transport.frames_shed")
	}
	r.jcond = sync.NewCond(&r.jmu)
	conn, err := opts.Dialer(addr, opts.TCP.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) //neptune:discarderr best-effort socket tuning; the link works without TCP_NODELAY
	}
	r.conn = conn
	r.bw = bufio.NewWriterSize(conn, opts.TCP.WriteBufferSize)
	if err := r.writeHello(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: resilient hello: %w", err)
	}
	r.readerWG.Add(1)
	go r.readLoop(conn)
	r.writerWG.Add(1)
	go r.writeLoop()
	if opts.AckTimeout > 0 {
		r.watcherWG.Add(1)
		go r.ackWatch()
	}
	return r, nil
}

// ackWatch is the sender-side liveness watchdog: when the journal holds
// unacked frames and the cumulative ack makes no progress for
// AckTimeout, the connection is declared dead. This catches stalls TCP
// never surfaces as an IO error — a receiver wedged mid-frame by header
// corruption, or a black-holed path — at worst costing one spurious
// reconnect (replayed duplicates are discarded by receiver dedup).
func (r *Resilient) ackWatch() {
	defer r.watcherWG.Done()
	tick := time.NewTicker(r.opts.AckTimeout / 4)
	defer tick.Stop()
	var lastAcked uint64
	var stuckSince time.Time
	for {
		select {
		case <-r.closedCh:
			return
		case <-tick.C:
		}
		r.jmu.Lock()
		pending := len(r.jfr) - r.jhead
		acked := r.acked
		r.jmu.Unlock()
		if pending == 0 || acked != lastAcked {
			lastAcked = acked
			stuckSince = time.Time{}
			continue
		}
		if stuckSince.IsZero() {
			stuckSince = time.Now()
			continue
		}
		if time.Since(stuckSince) >= r.opts.AckTimeout {
			r.mu.Lock()
			conn := r.conn
			r.mu.Unlock()
			if conn != nil {
				r.connFailed(conn, errAckTimeout)
			}
			stuckSince = time.Time{}
		}
	}
}

// writeHello sends the link-identifying first frame on the current conn
// and flushes it. Caller owns the writer goroutine (or constructor). The
// payload is an EpochHello control message carrying the link id and the
// recovery epoch.
func (r *Resilient) writeHello() error {
	payload, err := control.Encode(control.Message{
		Kind:   control.KindEpochHello,
		LinkID: r.linkID,
		Epoch:  r.opts.Epoch,
		Nanos:  time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}
	hdr := r.hdr[:]
	putHeaderV2(hdr, 0, payload, flagHello|flagControl, 0, r.recvSeq.Load())
	if _, err := r.bw.Write(hdr); err != nil {
		return err
	}
	if _, err := r.bw.Write(payload); err != nil {
		return err
	}
	return r.bw.Flush()
}

// Send copies payload and admits the copy like SendOwned. It blocks while
// the journal is full under DegradeBlock or the outbound queue is gated
// (backpressure), and never fails on link outages — only when the
// transport is closed or has permanently given up.
func (r *Resilient) Send(channel uint32, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return r.SendOwned(channel, cp, nil)
}

// SendOwned admits payload to the replay journal without copying it and
// enqueues it for the writer (see OwnedSender). The journal owns payload
// from this call on: release fires exactly once — when a cumulative ack
// covers the frame, when DegradeShedOldest sheds it, or when the link
// closes or gives up, but never while the writer is still copying the
// frame into the connection — or before an error return for a frame that
// was never admitted. Admission applies the degrade policy on the calling
// goroutine: under DegradeBlock the caller waits for acks to free space.
func (r *Resilient) SendOwned(channel uint32, payload []byte, release func()) error {
	if err := r.sendErr(); err != nil {
		return releaseWith(release, err)
	}
	if len(payload) > MaxFrameSize {
		return releaseWith(release, ErrFrameTooBig)
	}
	r.admitMu.Lock()
	defer r.admitMu.Unlock()
	seq, err := r.admit(channel, payload, release)
	if err != nil {
		return releaseWith(release, err)
	}
	if r.queue.Gated() {
		r.stats.sendBlocked.Add(1)
	}
	// From here the journal owns payload: a queue closed under us leaves
	// the frame for Close's (or terminate's) journal sweep to release.
	if err := r.queue.Push(Frame{Channel: channel, Payload: payload, seq: seq}, int64(len(payload))+headerV2Size); err != nil {
		if errors.Is(err, backpressure.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	r.stats.framesSent.Add(1)
	r.stats.bytesSent.Add(uint64(len(payload)))
	return nil
}

// sendErr reports why the transport no longer accepts frames, if it
// does not.
func (r *Resilient) sendErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		return nil
	}
	if r.termErr != nil && !errors.Is(r.termErr, ErrClosed) {
		return r.termErr
	}
	return ErrClosed
}

// releaseWith runs release (if any) and returns err: the rejection path
// of an ownership-taking send.
func releaseWith(release func(), err error) error {
	if release != nil {
		release()
	}
	return err
}

// SendControl enqueues an encoded control-plane message for the peer.
// Control frames ride the same outbound queue and connection as data
// (one frame kind, no second socket) but are unsequenced and never
// journaled: if the link is down when the writer reaches the frame it
// is dropped. Control state is soft — publishers re-advertise — so a
// dropped frame costs latency, not correctness.
func (r *Resilient) SendControl(payload []byte) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.mu.Unlock()
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	if len(payload) == 0 {
		return errors.New("transport: empty control payload")
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	if err := r.queue.Push(Frame{Payload: cp, ctrl: true}, int64(len(cp))+headerV2Size); err != nil {
		if errors.Is(err, backpressure.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	return nil
}

// writeControl writes one control frame on the live connection, if any.
// Never journals, never dials: a control frame that meets a dead link
// is dropped (soft state). Writer goroutine only.
func (r *Resilient) writeControl(f Frame) {
	r.mu.Lock()
	conn := r.conn
	live := conn != nil && !r.broken && !r.closed
	r.mu.Unlock()
	if !live || r.bw == nil {
		return
	}
	hdr := r.hdr[:]
	putHeaderV2(hdr, f.Channel, f.Payload, flagControl, 0, r.recvSeq.Load())
	if _, err := r.bw.Write(hdr); err != nil {
		r.connFailed(conn, err)
		return
	}
	if _, err := r.bw.Write(f.Payload); err != nil {
		r.connFailed(conn, err)
		return
	}
	if r.queue.Len() == 0 {
		if err := r.bw.Flush(); err != nil {
			r.connFailed(conn, err)
			return
		}
	}
	r.ctrlOut.Add(1)
	if m := r.opts.Metrics; m != nil {
		m.Counter("transport.control_out").Inc()
	}
}

// writeLoop is the single IO writer: it drains the outbound queue onto
// the connection and owns dialing/replacement of the connection. Data
// frames arrive already journaled, so the writer never waits for
// journal space.
func (r *Resilient) writeLoop() {
	defer r.writerWG.Done()
	for {
		f, ok := r.queue.Pop()
		if !ok {
			r.flushBest()
			return
		}
		if f.Payload == nil {
			// Reconnect nudge (from a failed reader or a backoff timer):
			// redeliver the journal even though no new Send is in flight.
			if !r.isClosed() && (r.journalLen() > 0 || r.brokenFlag.Load()) {
				r.ready()
			}
			// Data frames popped just before this sentinel skipped their
			// flush (the queue looked non-empty); flush them now or they
			// rot in the buffer with no further pops to trigger it.
			r.flushIfIdle()
			continue
		}
		if f.ctrl {
			r.writeControl(f)
			continue
		}
		if r.isClosed() {
			r.writeClosing(f)
			continue
		}
		r.writeData(f)
	}
}

// writeData writes one journaled frame, reconnecting as needed. Under
// DegradeShedOldest a down link makes this a no-op — the frame stays
// journaled and the scheduled reconnect replays it later.
//
//neptune:hotpath
func (r *Resilient) writeData(f Frame) {
	for {
		if !r.ready() {
			return
		}
		if err := r.writeOne(f); err != nil {
			r.connFailed(r.conn, err)
			continue
		}
		// Flush only when no more frames are immediately available —
		// consecutive frames coalesce into one syscall.
		if r.queue.Len() == 0 {
			if err := r.bw.Flush(); err != nil {
				r.connFailed(r.conn, err)
				continue
			}
		}
		return
	}
}

// writeClosing is the best-effort path for frames popped after Close:
// write on the live conn if any, never reconnect.
func (r *Resilient) writeClosing(f Frame) {
	r.mu.Lock()
	conn := r.conn
	dead := conn == nil || r.broken
	r.mu.Unlock()
	if dead {
		return
	}
	if err := r.writeOne(f); err != nil {
		r.connFailed(conn, err)
		return
	}
	if r.queue.Len() == 0 {
		if err := r.bw.Flush(); err != nil {
			r.connFailed(conn, err)
		}
	}
}

// writeOne copies one journaled frame into the write buffer. It skips a
// frame the reconnect's journal replay already wrote, and one that left
// the journal (acked or shed) before the writer reached it: that buffer
// may already be back with its owner. Writer goroutine only.
func (r *Resilient) writeOne(f Frame) error {
	if f.seq <= r.wrote.Load() || !r.pin(f.seq, f.seq) {
		return nil
	}
	// Advance wrote before the bytes can reach the peer, so its ack is
	// never ignored; a failed write leaves the frame to the replay.
	r.wrote.Store(f.seq)
	hdr := r.hdr[:]
	putHeaderV2(hdr, f.Channel, f.Payload, 0, f.seq, r.recvSeq.Load())
	_, err := r.bw.Write(hdr)
	if err == nil {
		_, err = r.bw.Write(f.Payload)
	}
	r.unpin()
	return err
}

// flushBest flushes the write buffer if the connection is still live.
func (r *Resilient) flushBest() {
	r.mu.Lock()
	live := r.conn != nil && !r.broken
	r.mu.Unlock()
	if live && r.bw != nil {
		//neptune:discarderr a failed flush resurfaces as a write error on the writer goroutine, which owns connFailed
		_ = r.bw.Flush()
	}
}

// flushIfIdle flushes buffered frames when no more pops are imminent,
// surfacing a failed flush as a connection failure so the journaled
// frames get replayed. Writer goroutine only.
func (r *Resilient) flushIfIdle() {
	if r.queue.Len() != 0 || r.bw == nil {
		return
	}
	r.mu.Lock()
	conn := r.conn
	live := conn != nil && !r.broken
	r.mu.Unlock()
	if !live {
		return
	}
	if err := r.bw.Flush(); err != nil {
		r.connFailed(conn, err)
	}
}

// ready returns with a live connection installed, dialing (with
// backoff, within the attempt/deadline budget) and replaying the
// journal as needed. It returns false when the transport is closed,
// permanently gave up, or — under DegradeShedOldest — when the link is
// still down (a backoff timer will renudge the writer; the writer must
// stay free to consume and shed frames). Writer goroutine only.
func (r *Resilient) ready() bool {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return false
		}
		if r.conn != nil && !r.broken {
			r.mu.Unlock()
			return true
		}
		old := r.conn
		r.conn = nil
		r.mu.Unlock()
		if old != nil {
			old.Close()
		}
		if r.outageStart.IsZero() {
			r.outageStart = time.Now()
		}
		if r.opts.MaxAttempts > 0 && r.outageAttempts >= r.opts.MaxAttempts {
			r.terminate(fmt.Errorf("%w after %d attempts: %v", ErrGaveUp, r.outageAttempts, r.lastDialErr))
			return false
		}
		if r.opts.ReconnectDeadline > 0 && time.Since(r.outageStart) > r.opts.ReconnectDeadline {
			r.terminate(fmt.Errorf("%w after %v: %v", ErrGaveUp, r.opts.ReconnectDeadline, r.lastDialErr))
			return false
		}
		// Pace dial attempts: under the shed policy the writer never
		// sleeps (the backoff timer renudges it); under the blocking
		// policy it waits out the backoff right here.
		if wait := time.Until(r.nextDialAt); wait > 0 {
			if r.opts.Policy == DegradeShedOldest {
				return false
			}
			select {
			case <-r.closedCh:
				return false
			case <-time.After(wait):
			}
		}
		conn, err := r.opts.Dialer(r.addr, r.opts.TCP.DialTimeout)
		if err != nil {
			r.lastDialErr = err
			d := r.backoff(r.outageAttempts)
			r.outageAttempts++
			r.nextDialAt = time.Now().Add(d)
			if r.opts.Policy == DegradeShedOldest {
				//neptune:discarderr the nudge push only fails when the queue is closed during shutdown, when waking the writer is moot
				time.AfterFunc(d, func() { _ = r.queue.Push(Frame{}, 0) })
				return false
			}
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) //neptune:discarderr best-effort socket tuning; the link works without TCP_NODELAY
		}
		r.mu.Lock()
		r.conn = conn
		r.broken = false
		r.state = LinkConnected
		r.mu.Unlock()
		r.brokenFlag.Store(false)
		r.bw = bufio.NewWriterSize(conn, r.opts.TCP.WriteBufferSize)
		if err := r.writeHello(); err != nil {
			r.connFailed(conn, err)
			continue
		}
		r.readerWG.Add(1)
		go r.readLoop(conn)
		if !r.resendJournal() {
			continue
		}
		r.outageAttempts = 0
		r.outageStart = time.Time{}
		r.nextDialAt = time.Time{}
		r.reconnects.Add(1)
		if m := r.opts.Metrics; m != nil {
			m.Counter("transport.reconnects").Inc()
		}
		if cb := r.opts.OnStateChange; cb != nil {
			cb(LinkConnected)
		}
		return true
	}
}

// newSeededRng builds the deterministic jitter source.
func newSeededRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// backoff computes the delay before retry attempt+1: exponential from
// BackoffBase, capped at BackoffMax, with jitter in [d/2, d).
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.opts.BackoffMax
	if attempt < 20 {
		if e := r.opts.BackoffBase << uint(attempt); e < d {
			d = e
		}
	}
	if d < 2 {
		return d
	}
	r.rngMu.Lock()
	j := d/2 + time.Duration(r.rng.Int63n(int64(d/2)))
	r.rngMu.Unlock()
	return j
}

// resendJournal replays every journaled frame on the fresh connection:
// those written before the outage and not yet acked, and those admitted
// but not yet reached by the writer. The replayed range stays pinned
// while it is copied into the write buffer, so an ack arriving meanwhile
// defers its buffers' release until the copy is done.
func (r *Resilient) resendJournal() bool {
	r.jmu.Lock()
	r.snap = append(r.snap[:0], r.jfr[r.jhead:]...)
	if len(r.snap) > 0 {
		r.pinLo, r.pinHi = r.snap[0].seq, r.snap[len(r.snap)-1].seq
	}
	r.jmu.Unlock()
	if len(r.snap) == 0 {
		return true
	}
	// Advance the written mark before any byte of the replay can reach
	// the peer, or journalAck would ignore its acks.
	r.wrote.Store(max(r.wrote.Load(), r.snap[len(r.snap)-1].seq))
	redelivered := uint64(len(r.snap))
	hdr := r.hdr[:]
	var err error
	for _, jf := range r.snap {
		putHeaderV2(hdr, jf.channel, jf.payload, 0, jf.seq, r.recvSeq.Load())
		if _, err = r.bw.Write(hdr); err != nil {
			break
		}
		if _, err = r.bw.Write(jf.payload); err != nil {
			break
		}
	}
	clear(r.snap)
	r.snap = r.snap[:0]
	r.unpin()
	if err == nil {
		err = r.bw.Flush()
	}
	if err != nil {
		r.connFailed(r.conn, err)
		return false
	}
	r.redelivered.Add(redelivered)
	if m := r.opts.Metrics; m != nil {
		m.Counter("transport.redelivered_frames").Add(redelivered)
	}
	return true
}

// journalLen reports the number of unacked frames.
func (r *Resilient) journalLen() int {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	return len(r.jfr) - r.jhead
}

// admit assigns the next sequence number and journals the frame,
// applying the degrade policy when the journal is full: DegradeBlock
// waits for acks to free space, DegradeShedOldest drops the oldest
// frames. It runs on the sending goroutine under admitMu. An error means
// the frame was not admitted and its release is still the caller's.
func (r *Resilient) admit(channel uint32, payload []byte, release func()) (uint64, error) {
	need := int64(len(payload)) + headerV2Size
	var shedBuf [8]func()
	shed := shedBuf[:0]
	r.jmu.Lock()
	for !r.jclosed && r.jbytes+need > r.opts.ReplayLimit && len(r.jfr)-r.jhead > 0 {
		if r.opts.Policy == DegradeShedOldest {
			old := r.popOldest()
			shed = r.parkRelease(shed, old)
			r.shed.Inc()
			if m := r.opts.Metrics; m != nil {
				m.Gauge("transport.replay_bytes").Add(-(int64(len(old.payload)) + headerV2Size))
				m.Gauge("transport.replay_frames").Add(-1)
			}
			continue
		}
		// Blocking policy: space frees on acks. The writer is free to
		// reconnect and replay meanwhile, so acks keep coming; Close and
		// give-up wake this wait through jclosed.
		r.jcond.Wait()
	}
	closed := r.jclosed
	r.jmu.Unlock()
	runReleases(shed)
	if closed {
		return 0, ErrClosed
	}
	seq := r.nextSeq + 1
	// The observer sees the frame while the caller still owns it: once
	// journaled, an ack may release the buffer at any moment.
	if o := r.opts.Journal; o != nil {
		o.JournalAppend(seq, channel, payload)
	}
	r.jmu.Lock()
	if r.jclosed {
		r.jmu.Unlock()
		return 0, ErrClosed
	}
	r.nextSeq = seq
	if r.jhead > 0 && len(r.jfr) == cap(r.jfr) {
		// Compact instead of growing: the dead head slots are reusable.
		n := copy(r.jfr, r.jfr[r.jhead:])
		clear(r.jfr[n:])
		r.jfr = r.jfr[:n]
		r.jhead = 0
	}
	r.jfr = append(r.jfr, jframe{seq: seq, channel: channel, payload: payload, release: release})
	r.jbytes += need
	if m := r.opts.Metrics; m != nil {
		m.Gauge("transport.replay_bytes").Add(need)
		m.Gauge("transport.replay_frames").Add(1)
	}
	r.jmu.Unlock()
	return seq, nil
}

// popOldest removes the journal's head frame. Caller holds jmu and has
// checked the journal is non-empty.
func (r *Resilient) popOldest() jframe {
	old := r.jfr[r.jhead]
	r.jfr[r.jhead] = jframe{}
	r.jhead++
	r.jbytes -= int64(len(old.payload)) + headerV2Size
	if r.jhead == len(r.jfr) {
		r.jfr = r.jfr[:0]
		r.jhead = 0
	}
	return old
}

// parkRelease routes the release of a frame leaving the journal: into
// deferred while the writer has it pinned, otherwise onto out for the
// caller to run once it drops jmu. Caller holds jmu.
func (r *Resilient) parkRelease(out []func(), jf jframe) []func() {
	if jf.release == nil {
		return out
	}
	if r.pinHi != 0 && jf.seq >= r.pinLo && jf.seq <= r.pinHi {
		r.deferred = append(r.deferred, jf.release)
		return out
	}
	return append(out, jf.release)
}

// runReleases hands each buffer back to its owner. Called without locks.
func runReleases(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}

// pin marks seq range lo..hi as being written, if the journal still holds
// lo; it reports false when lo already left the journal (acked or shed),
// and the frame's buffer must not be touched. Writer goroutine only.
func (r *Resilient) pin(lo, hi uint64) bool {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	if r.jhead == len(r.jfr) || lo < r.jfr[r.jhead].seq {
		return false
	}
	r.pinLo, r.pinHi = lo, hi
	return true
}

// unpin ends the writer's pin and runs the releases deferred during it.
// Writer goroutine only.
func (r *Resilient) unpin() {
	var relBuf [8]func()
	r.jmu.Lock()
	r.pinLo, r.pinHi = 0, 0
	rel := append(relBuf[:0], r.deferred...)
	clear(r.deferred)
	r.deferred = r.deferred[:0]
	r.jmu.Unlock()
	runReleases(rel)
}

// sweepJournal empties the journal for good (Close or give-up),
// releasing every frame still in it. The writer must not be mid-pin.
func (r *Resilient) sweepJournal() {
	r.jmu.Lock()
	r.jclosed = true
	r.jcond.Broadcast()
	var rel []func()
	freed := int64(len(r.jfr) - r.jhead)
	freedBytes := r.jbytes
	for r.jhead < len(r.jfr) {
		rel = r.parkRelease(rel, r.popOldest())
	}
	rel = append(rel, r.deferred...)
	clear(r.deferred)
	r.deferred = r.deferred[:0]
	r.jmu.Unlock()
	if m := r.opts.Metrics; m != nil && freed > 0 {
		m.Gauge("transport.replay_bytes").Add(-freedBytes)
		m.Gauge("transport.replay_frames").Add(-freed)
	}
	runReleases(rel)
}

// journalAck trims every journaled frame covered by the cumulative ack
// and hands their buffers back (deferred for any the writer has pinned).
func (r *Resilient) journalAck(ack uint64) {
	var relBuf [8]func()
	rel := relBuf[:0]
	ack = min(ack, r.wrote.Load())
	r.jmu.Lock()
	if ack <= r.acked {
		r.jmu.Unlock()
		return
	}
	r.acked = ack
	var freedBytes int64
	var freedFrames int64
	for r.jhead < len(r.jfr) && r.jfr[r.jhead].seq <= ack {
		old := r.popOldest()
		freedBytes += int64(len(old.payload)) + headerV2Size
		freedFrames++
		rel = r.parkRelease(rel, old)
	}
	if freedFrames > 0 {
		r.jcond.Broadcast()
	}
	r.jmu.Unlock()
	runReleases(rel)
	if freedFrames > 0 {
		if m := r.opts.Metrics; m != nil {
			m.Gauge("transport.replay_bytes").Add(-freedBytes)
			m.Gauge("transport.replay_frames").Add(-freedFrames)
		}
		if o := r.opts.Journal; o != nil {
			o.JournalTrim(ack)
		}
	}
}

// readLoop parses inbound frames on one connection: acks trim the
// journal, data frames are deduped and delivered. One readLoop runs per
// connection; it exits when the connection fails.
func (r *Resilient) readLoop(conn net.Conn) {
	defer r.readerWG.Done()
	fr := newFrameReader(bufio.NewReaderSize(conn, 64<<10))
	for {
		f, err := fr.next()
		if err != nil {
			r.connFailed(conn, err)
			return
		}
		if f.version == frameVersion2 {
			if f.ack > 0 {
				r.journalAck(f.ack)
			}
			if f.flags&flagControl != 0 && f.flags&flagHello == 0 {
				r.ctrlIn.Add(1)
				if m := r.opts.Metrics; m != nil {
					m.Counter("transport.control_in").Inc()
				}
				if h := r.opts.ControlHandler; h != nil {
					h(f.payload)
				}
				continue
			}
			if f.flags&(flagAckOnly|flagHello) != 0 {
				continue
			}
			if f.seq > 0 {
				if f.seq <= r.recvSeq.Load() {
					r.dups.Add(1)
					continue
				}
				r.recvSeq.Store(f.seq)
			}
		}
		r.stats.framesReceived.Add(1)
		r.stats.bytesReceived.Add(uint64(len(f.payload)))
		if r.handler != nil {
			r.handler(Frame{Channel: f.channel, Payload: f.payload})
		}
	}
}

// connFailed marks the current connection broken (idempotently), closes
// it to unblock the peer goroutine, and nudges the writer so recovery
// is not deferred to the next Send.
func (r *Resilient) connFailed(conn net.Conn, err error) {
	r.mu.Lock()
	if conn == nil || conn != r.conn || r.broken {
		r.mu.Unlock()
		return
	}
	r.lastDisconnect = err
	r.broken = true
	closed := r.closed
	if !closed {
		r.state = LinkReconnecting
	}
	cb := r.opts.OnStateChange
	r.mu.Unlock()
	r.brokenFlag.Store(true)
	conn.Close()
	if closed {
		return
	}
	if cb != nil {
		cb(LinkReconnecting)
	}
	//neptune:discarderr the nudge push only fails when the queue is closed during shutdown, when waking the writer is moot
	go func() { _ = r.queue.Push(Frame{}, 0) }() //neptune:fireforget one-shot wake of a writer parked on the send queue; exits after one bounded Push
}

// terminate records a permanent failure: the reconnect budget ran out.
func (r *Resilient) terminate(err error) {
	r.mu.Lock()
	if r.termErr == nil {
		r.termErr = err
	}
	r.closed = true
	r.state = LinkDown
	cbState := r.opts.OnStateChange
	cbErr := r.opts.TCP.OnError
	r.mu.Unlock()
	r.closeOnce.Do(func() { close(r.closedCh) })
	r.queue.Close()
	// terminate runs on the writer outside any pin, and no frame will be
	// written again: every journaled buffer goes back now.
	r.sweepJournal()
	if cbState != nil {
		cbState(LinkDown)
	}
	if cbErr != nil && err != nil && !errors.Is(err, ErrClosed) {
		cbErr(err)
	}
}

func (r *Resilient) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Err returns the transport's terminal error, if it permanently failed.
func (r *Resilient) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.termErr != nil && !errors.Is(r.termErr, ErrClosed) {
		return r.termErr
	}
	return nil
}

// State reports the link's current connectivity.
func (r *Resilient) State() LinkState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Health snapshots the link's resilience counters.
func (r *Resilient) Health() LinkHealth {
	r.jmu.Lock()
	frames := len(r.jfr) - r.jhead
	bytes := r.jbytes
	r.jmu.Unlock()
	r.mu.Lock()
	state := r.state
	err := r.termErr
	lastDrop := r.lastDisconnect
	r.mu.Unlock()
	if err != nil && errors.Is(err, ErrClosed) {
		err = nil
	}
	return LinkHealth{
		Addr:           r.addr,
		State:          state,
		Reconnects:     r.reconnects.Load(),
		Redelivered:    r.redelivered.Load(),
		Shed:           r.shed.Value(),
		DupsDropped:    r.dups.Load(),
		ReplayFrames:   frames,
		ReplayBytes:    bytes,
		LastDisconnect: lastDrop,
		Err:            err,
	}
}

// InFlight reports how many frames have not been confirmed delivered:
// every admitted data frame is journaled until the receiver's cumulative
// ack covers it, whether or not the writer has reached it yet. The
// listener acks a data frame only after dispatching it to its handler,
// so a zero InFlight means every sent frame was actually delivered —
// duplicated or out-of-job traffic arriving at the receiver cannot fake
// it. Drain barriers rely on that:
// without this count a checkpoint could commit (and reset its replay
// logs) while frames sit unacked in the journal of a flapping link,
// losing them for any later recovery.
func (r *Resilient) InFlight() int {
	return r.journalLen()
}

// LinkID returns the link identifier carried in the hello handshake. A
// supervisor reuses it when re-dialing a rebuilt link so the receiver's
// redelivery state stays keyed to the same logical link.
func (r *Resilient) LinkID() uint64 { return r.linkID }

// Epoch returns the recovery epoch this link handshakes with.
func (r *Resilient) Epoch() uint64 { return r.opts.Epoch }

// ControlIn reports how many control frames this endpoint received.
func (r *Resilient) ControlIn() uint64 { return r.ctrlIn.Load() }

// ControlOut reports how many control frames this endpoint wrote.
func (r *Resilient) ControlOut() uint64 { return r.ctrlOut.Load() }

// Stats reports transfer counters.
func (r *Resilient) Stats() Stats { return r.stats.snapshot() }

// Pressure reports the outbound queue's backpressure counters.
func (r *Resilient) Pressure() backpressure.Stats { return r.queue.Stats() }

// Close shuts the transport down. Queued frames are written best-effort
// on the live connection; no reconnection is attempted during close.
func (r *Resilient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.closeOnce.Do(func() { close(r.closedCh) })
		r.writerWG.Wait()
		r.watcherWG.Wait()
		r.readerWG.Wait()
		return nil
	}
	r.closed = true
	r.state = LinkDown
	r.mu.Unlock()
	r.closeOnce.Do(func() { close(r.closedCh) })
	r.queue.Close()
	r.jmu.Lock()
	r.jclosed = true
	r.jcond.Broadcast()
	r.jmu.Unlock()
	r.writerWG.Wait()
	// The writer is gone, so nothing is pinned: release what the journal
	// still holds (frames never acked before close).
	r.sweepJournal()
	r.mu.Lock()
	conn := r.conn
	r.conn = nil
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	r.watcherWG.Wait()
	r.readerWG.Wait()
	return nil
}

var (
	_ Transport   = (*Resilient)(nil)
	_ OwnedSender = (*Resilient)(nil)
)
