package transport

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// ownedFrames hands out n payloads with a release callback each, and
// counts how often each callback ran.
type ownedFrames struct {
	payloads [][]byte
	releases []func()
	counts   []atomic.Int32
}

func newOwnedFrames(n, size int) *ownedFrames {
	o := &ownedFrames{
		payloads: make([][]byte, n),
		releases: make([]func(), n),
		counts:   make([]atomic.Int32, n),
	}
	for i := range o.payloads {
		o.payloads[i] = bytes.Repeat([]byte{byte(i)}, size)
		o.releases[i] = func() { o.counts[i].Add(1) }
	}
	return o
}

// released reports how many frames have had their callback run.
func (o *ownedFrames) released() int {
	n := 0
	for i := range o.counts {
		if o.counts[i].Load() > 0 {
			n++
		}
	}
	return n
}

// checkOnce fails unless every frame's release ran exactly once.
func (o *ownedFrames) checkOnce(t *testing.T) {
	t.Helper()
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 1 {
			t.Fatalf("frame %d released %d times, want exactly once", i, c)
		}
	}
}

func (o *ownedFrames) sendAll(t *testing.T, r *Resilient) {
	t.Helper()
	for i := range o.payloads {
		if err := r.SendOwned(1, o.payloads[i], o.releases[i]); err != nil {
			t.Fatalf("SendOwned %d: %v", i, err)
		}
	}
}

// TestResilientOwnedReleaseOnAck: a cumulative ack hands every covered
// buffer back exactly once, and Close releases nothing a second time.
func TestResilientOwnedReleaseOnAck(t *testing.T) {
	c := &collect{}
	cl, _ := resilientPair(t, c, nil, ResilientOptions{})
	o := newOwnedFrames(200, 64)
	o.sendAll(t, cl)
	c.wait(t, 200)
	waitFor(t, func() bool { return o.released() == 200 })
	if cl.InFlight() != 0 {
		t.Fatalf("InFlight = %d after every frame was acked", cl.InFlight())
	}
	cl.Close()
	o.checkOnce(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, f := range c.frames {
		if !bytes.Equal(f.Payload, o.payloads[i]) {
			t.Fatalf("frame %d arrived altered", i)
		}
	}
}

// TestResilientOwnedReleaseOnShed: under DegradeShedOldest on a dead
// link, every shed frame is released at admission and the survivors on
// Close — each exactly once.
func TestResilientOwnedReleaseOnShed(t *testing.T) {
	inj := chaos.New(5)
	c := &collect{}
	const size = 512
	cl, _ := resilientPair(t, c, inj, ResilientOptions{
		Policy:      DegradeShedOldest,
		ReplayLimit: 8 * (size + headerV2Size),
		AckTimeout:  -1,
	})
	inj.Partition()
	defer inj.Heal()
	waitFor(t, func() bool { return cl.State() != LinkConnected || cl.Health().LastDisconnect != nil })
	o := newOwnedFrames(100, size)
	o.sendAll(t, cl)
	shed := cl.Health().Shed
	if shed == 0 {
		t.Fatal("nothing was shed past the replay limit")
	}
	if got := o.released(); uint64(got) < shed {
		t.Fatalf("%d frames released, %d shed", got, shed)
	}
	cl.Close()
	o.checkOnce(t)
}

// TestResilientOwnedReleaseOnClose: frames journaled on a link that never
// acks are all released by Close, exactly once.
func TestResilientOwnedReleaseOnClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go drainConns(ln)
	cl, err := DialResilient(ln.Addr().String(), nil, ResilientOptions{AckTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwnedFrames(50, 128)
	o.sendAll(t, cl)
	if got := o.released(); got != 0 {
		t.Fatalf("%d frames released before any ack", got)
	}
	cl.Close()
	o.checkOnce(t)
	// A send after Close is rejected and its buffer handed straight back.
	var late atomic.Int32
	if err := cl.SendOwned(1, []byte("late"), func() { late.Add(1) }); err == nil {
		t.Fatal("SendOwned after Close succeeded")
	}
	if late.Load() != 1 {
		t.Fatalf("rejected frame released %d times, want 1", late.Load())
	}
}

// drainConns accepts connections and discards what they carry, never
// acking: every frame stays journaled on the sender.
func drainConns(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			_, _ = io.Copy(io.Discard, conn)
		}()
	}
}

// gatedConn blocks its first large Write until open is closed, after
// signalling entered: it holds the writer in the middle of copying a
// replayed payload to the socket.
type gatedConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
	open    chan struct{}
}

func (g *gatedConn) Write(b []byte) (int, error) {
	if len(b) >= 1024 {
		g.once.Do(func() {
			close(g.entered)
			<-g.open
		})
	}
	return g.Conn.Write(b)
}

// TestResilientAckDuringReplayDefersRelease pins the replay hazard: an
// ack covering frames that resendJournal is still writing must not hand
// their buffers back until the writer is done with them, and then must
// hand each back exactly once.
func TestResilientAckDuringReplayDefersRelease(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		mu       sync.Mutex
		dials    int
		gate     = &gatedConn{entered: make(chan struct{}), open: make(chan struct{})}
		accepted = make(chan net.Conn, 4)
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
	opts := ResilientOptions{
		AckTimeout:  -1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		// A write buffer smaller than one payload makes the replay copy
		// each payload straight to the socket, through the gate.
		TCP: TCPOptions{WriteBufferSize: 512},
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			dials++
			if dials == 1 {
				return conn, nil
			}
			gate.Conn = conn
			return gate, nil
		},
	}
	cl, err := DialResilient(ln.Addr().String(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Runs before the deferred Close on a failed assertion, so Close
	// never waits on a writer still held at the gate.
	openGate := sync.OnceFunc(func() { close(gate.open) })
	defer openGate()
	o := newOwnedFrames(8, 4096)
	o.sendAll(t, cl)
	waitFor(t, func() bool { return cl.wrote.Load() == 8 })
	// Break the first connection from the server side: the sender
	// reconnects and replays all eight unacked frames.
	(<-accepted).Close()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("replay never reached the socket")
	}
	// The writer is mid-replay with every frame pinned. An ack covering
	// all of them lands now.
	cl.journalAck(8)
	if got := o.released(); got != 0 {
		t.Fatalf("%d buffers released while the replay was still writing them", got)
	}
	if cl.InFlight() != 0 {
		t.Fatalf("InFlight = %d after the covering ack", cl.InFlight())
	}
	openGate()
	waitFor(t, func() bool { return o.released() == 8 })
	cl.Close()
	o.checkOnce(t)
}

// TestResilientSendOwnedZeroAlloc: on a live link, handing a pooled
// buffer to SendOwned and getting it back on ack allocates nothing once
// the journal and queue have grown to their working size.
func TestResilientSendOwnedZeroAlloc(t *testing.T) {
	var got atomic.Int64
	ln, err := ListenResilient("127.0.0.1:0", func(Frame) { got.Add(1) }, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cl, err := DialResilient(ln.Addr(), nil, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	o := newOwnedFrames(1, 256)
	payload, release := o.payloads[0], o.releases[0]
	var sent int64
	send := func() {
		// One buffer in flight at a time: wait for the previous ack.
		for o.counts[0].Load() != int32(sent) {
			time.Sleep(10 * time.Microsecond)
		}
		if err := cl.SendOwned(1, payload, release); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	for i := 0; i < 200; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("SendOwned allocated %v times per frame on a live link", allocs)
	}
	waitFor(t, func() bool { return o.counts[0].Load() == int32(sent) })
}
