package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/control"
)

// This file is the accepting, receiving half of the resilient transport
// pair (split out of resilient.go): per-link dedup keyed by the hello's
// link id, cumulative acks, and the listener side of the control plane.
// Hello frames are EpochHello control messages, inbound control frames
// are handed to ResilientOptions.ControlHandler, and SendControl
// broadcasts a control frame to every connected sender — the upstream
// direction watermark advertisements travel.

// linkRecv is the receiver-side redelivery state of one link, keyed by
// the sender's link id so it survives reconnections. epoch tracks the
// link's recovery generation: a hello with a higher epoch rewinds
// lastSeen so a supervisor-rebuilt sender (whose frame sequence restarts
// at 1) is not misread as a flood of stale duplicates; a hello with the
// same epoch — every ordinary reconnect — leaves dedup state intact.
//
// owner is the connection whose serve goroutine delivers the link's
// frames. A reconnect's hello takes ownership and waits for the previous
// owner's goroutine to exit, so an old connection still delivering its
// buffered frames can never race the new one's replay and let a later
// frame overtake an earlier one at the handler.
type linkRecv struct {
	//neptune:lock rlisten-link
	mu       sync.Mutex
	lastSeen uint64
	epoch    uint64
	owner    *servedConn
}

// servedConn pairs an accepted connection with a write mutex: acks are
// written by the serve goroutine, control broadcasts by arbitrary
// callers, and the two must not interleave mid-frame.
type servedConn struct {
	conn net.Conn
	done chan struct{} // closed when the conn's serve goroutine exits
	//neptune:lock rlisten-write
	wmu sync.Mutex
}

// writeFrame writes one v2 frame (header + payload) under the write
// mutex. Returns false on IO error; the serve goroutine owns teardown.
func (sc *servedConn) writeFrame(hdr []byte, payload []byte) bool {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if _, err := sc.conn.Write(hdr); err != nil {
		return false
	}
	if len(payload) > 0 {
		if _, err := sc.conn.Write(payload); err != nil {
			return false
		}
	}
	return true
}

// ResilientListener accepts resilient (and plain v1) connections: v2
// data frames are deduped by last-seen sequence per link and acked
// cumulatively; v1 frames pass through untouched.
type ResilientListener struct {
	ln      net.Listener
	opts    ResilientOptions
	handler Handler
	wg      sync.WaitGroup

	//neptune:lock rlisten
	mu     sync.Mutex
	conns  map[net.Conn]*servedConn
	links  map[uint64]*linkRecv
	closed bool

	dups     atomic.Uint64
	acksSent atomic.Uint64
	ctrlIn   atomic.Uint64
	ctrlOut  atomic.Uint64
}

// ListenResilient starts accepting resilient transport connections on
// addr, delivering every deduplicated inbound frame to handler.
func ListenResilient(addr string, handler Handler, opts ResilientOptions) (*ResilientListener, error) {
	if handler == nil {
		return nil, errors.New("transport: nil handler")
	}
	opts.defaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &ResilientListener{
		ln:      ln,
		opts:    opts,
		handler: handler,
		conns:   make(map[net.Conn]*servedConn),
		links:   make(map[uint64]*linkRecv),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's bound address.
func (l *ResilientListener) Addr() string { return l.ln.Addr().String() }

// DupsDropped reports how many duplicate frames were discarded.
func (l *ResilientListener) DupsDropped() uint64 { return l.dups.Load() }

// AcksSent reports how many ack frames this listener wrote.
func (l *ResilientListener) AcksSent() uint64 { return l.acksSent.Load() }

// ControlIn reports how many control frames (hellos included) arrived.
func (l *ResilientListener) ControlIn() uint64 { return l.ctrlIn.Load() }

// ControlOut reports how many control frames SendControl wrote.
func (l *ResilientListener) ControlOut() uint64 { return l.ctrlOut.Load() }

// SendControl broadcasts an encoded control message to every connected
// sender — the only listener-to-dialer traffic besides acks, and the
// path a downstream engine's watermark advertisement takes upstream.
// Best-effort: a conn that fails mid-write is left for its serve
// goroutine to tear down, and a listener with no live conns drops the
// message (control state is re-advertised by its publisher).
func (l *ResilientListener) SendControl(payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	if len(payload) == 0 {
		return errors.New("transport: empty control payload")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	targets := make([]*servedConn, 0, len(l.conns))
	for _, sc := range l.conns {
		targets = append(targets, sc)
	}
	l.mu.Unlock()
	var hdr [headerV2Size]byte
	putHeaderV2(hdr[:], 0, payload, flagControl, 0, 0)
	for _, sc := range targets {
		if sc.writeFrame(hdr[:], payload) {
			l.ctrlOut.Add(1)
			if m := l.opts.Metrics; m != nil {
				m.Counter("transport.control_out").Inc()
			}
		}
	}
	return nil
}

func (l *ResilientListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		sc := &servedConn{conn: conn, done: make(chan struct{})}
		l.conns[conn] = sc
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serve(sc)
	}
}

// link returns (creating if needed) the redelivery state for a link id.
func (l *ResilientListener) link(id uint64) *linkRecv {
	l.mu.Lock()
	defer l.mu.Unlock()
	lr, ok := l.links[id]
	if !ok {
		lr = &linkRecv{}
		l.links[id] = lr
	}
	return lr
}

// helloLink resolves a hello frame's EpochHello control message to its
// link's dedup state and makes sc the link's owner; any other payload
// binds no link. A higher epoch rewinds the dedup cursor (see linkRecv).
// A previous owner's connection is closed and its serve goroutine
// awaited, so it delivers nothing after this returns.
func (l *ResilientListener) helloLink(sc *servedConn, payload []byte) *linkRecv {
	m, err := control.Decode(payload)
	if err != nil || m.Kind != control.KindEpochHello {
		return nil
	}
	link := l.link(m.LinkID)
	link.mu.Lock()
	prev := link.owner
	link.owner = sc
	if m.Epoch > link.epoch {
		link.epoch = m.Epoch
		link.lastSeen = 0
	}
	link.mu.Unlock()
	if prev != nil && prev != sc {
		prev.conn.Close()
		<-prev.done
	}
	return link
}

// serve reads one connection until it fails: hello frames bind the
// conn to its link's dedup state, control frames go to ControlHandler,
// data frames are deduped + delivered + acked, v1 frames pass through.
func (l *ResilientListener) serve(sc *servedConn) {
	defer l.wg.Done()
	conn := sc.conn
	defer func() {
		close(sc.done)
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) //neptune:discarderr best-effort socket tuning; the link works without TCP_NODELAY
	}
	fr := newFrameReader(bufio.NewReaderSize(conn, 256<<10))
	local := &linkRecv{owner: sc} // dedup state for v2 senders that skip hello
	var link *linkRecv
	var ackHdr [headerV2Size]byte
	unacked := 0
	// A failed ack write (peer already gone, e.g. it flushed and closed)
	// must not abort the read side: frames the peer flushed before
	// vanishing are still in our buffer and must be delivered. Unacked
	// frames are simply redelivered on the next connection.
	ackBroken := false
	for {
		f, err := fr.next()
		if err != nil {
			// A vanished peer is normal here — the dialer side owns
			// recovery. Surface only corruption-class errors.
			if l.opts.TCP.OnError != nil &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, net.ErrClosed) {
				l.opts.TCP.OnError(err)
			}
			return
		}
		if f.version == frameVersion2 {
			if f.flags&flagHello != 0 {
				if lr := l.helloLink(sc, f.payload); lr != nil {
					link = lr
				}
				l.noteControlIn(f.payload)
				continue
			}
			if f.flags&flagControl != 0 {
				l.noteControlIn(f.payload)
				continue
			}
			if f.flags&flagAckOnly != 0 {
				continue
			}
			if f.seq > 0 {
				ls := link
				if ls == nil {
					ls = local
				}
				ls.mu.Lock()
				if ls.owner != sc {
					// A newer connection took the link over; its
					// replay re-sends everything still unacked here.
					ls.mu.Unlock()
					return
				}
				dup := f.seq <= ls.lastSeen
				if !dup {
					ls.lastSeen = f.seq
				}
				ack := ls.lastSeen
				ls.mu.Unlock()
				if dup {
					l.dups.Add(1)
					if m := l.opts.Metrics; m != nil {
						m.Counter("transport.dup_frames_dropped").Inc()
					}
					// Re-ack so the sender trims its journal even when
					// the original ack was lost with the connection.
					if !ackBroken && !l.writeAck(sc, ackHdr[:], ack) {
						ackBroken = true
					}
					unacked = 0
					continue
				}
				l.handler(Frame{Channel: f.channel, Payload: f.payload})
				unacked++
				if unacked >= l.opts.AckEvery {
					if !ackBroken && !l.writeAck(sc, ackHdr[:], ack) {
						ackBroken = true
					}
					unacked = 0
				}
				continue
			}
		}
		// v1 frame (or unsequenced v2): deliver without dedup/ack.
		l.handler(Frame{Channel: f.channel, Payload: f.payload})
	}
}

// noteControlIn counts an inbound control frame and hands its payload to
// the control handler (which must not retain the slice).
func (l *ResilientListener) noteControlIn(payload []byte) {
	l.ctrlIn.Add(1)
	if m := l.opts.Metrics; m != nil {
		m.Counter("transport.control_in").Inc()
	}
	if h := l.opts.ControlHandler; h != nil {
		h(payload)
	}
}

// writeAck sends an ack-only frame carrying the cumulative receive
// sequence.
func (l *ResilientListener) writeAck(sc *servedConn, hdr []byte, ack uint64) bool {
	putHeaderV2(hdr[:headerV2Size], 0, nil, flagAckOnly, 0, ack)
	if !sc.writeFrame(hdr[:headerV2Size], nil) {
		return false
	}
	l.acksSent.Add(1)
	return true
}

// Close stops accepting and closes every open connection.
func (l *ResilientListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return err
}
