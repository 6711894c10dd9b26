package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/control"
	"repro/internal/metrics"
)

// resilientPair starts a ResilientListener feeding c and a Resilient
// dialed through inj, with fast backoff for tests.
func resilientPair(t *testing.T, c *collect, inj *chaos.Injector, opts ResilientOptions) (*Resilient, *ResilientListener) {
	t.Helper()
	ln, err := ListenResilient("127.0.0.1:0", c.handler, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = time.Millisecond
	}
	if opts.BackoffMax == 0 {
		opts.BackoffMax = 20 * time.Millisecond
	}
	if inj != nil {
		opts.Dialer = inj.Dial
	}
	cl, err := DialResilient(ln.Addr(), nil, opts)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		ln.Close()
	})
	return cl, ln
}

// seqPayload encodes i so the receiver can verify order and uniqueness.
func seqPayload(i int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

// verifyExactlyOnceInOrder asserts c holds 0..n-1 exactly once, in order.
func verifyExactlyOnceInOrder(t *testing.T, c *collect, n int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) != n {
		t.Fatalf("got %d frames, want %d", len(c.frames), n)
	}
	for i, f := range c.frames {
		if got := int(binary.LittleEndian.Uint32(f.Payload)); got != i {
			t.Fatalf("frame %d carries payload %d (loss, dup, or reorder)", i, got)
		}
	}
}

func TestResilientPlainDelivery(t *testing.T) {
	c := &collect{}
	cl, _ := resilientPair(t, c, nil, ResilientOptions{})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := cl.Send(3, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, n)
	verifyExactlyOnceInOrder(t, c, n)
	if st := cl.State(); st != LinkConnected {
		t.Fatalf("state = %v", st)
	}
	h := cl.Health()
	if h.Reconnects != 0 || h.Redelivered != 0 || h.Shed != 0 {
		t.Fatalf("unexpected fault counters on a healthy link: %+v", h)
	}
}

func TestResilientSurvivesConnectionCut(t *testing.T) {
	inj := chaos.New(7)
	c := &collect{}
	reg := metrics.NewRegistry(nil)
	cl, ln := resilientPair(t, c, inj, ResilientOptions{Metrics: reg})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := cl.Send(1, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1000 || i == 3000 {
			inj.CutAll() // sever the live conn mid-stream
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.n.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.n.Load() < n {
		t.Fatalf("only %d of %d arrived; health=%+v stats=%+v lnDups=%d injStats=%+v",
			c.n.Load(), n, cl.Health(), cl.Stats(), ln.DupsDropped(), inj.Stats())
	}
	verifyExactlyOnceInOrder(t, c, n)
	h := cl.Health()
	if h.Reconnects == 0 {
		t.Fatal("no reconnects counted despite cuts")
	}
	if h.Redelivered == 0 {
		t.Fatal("no frames redelivered despite cuts")
	}
	if reg.Counter("transport.reconnects").Value() == 0 {
		t.Fatal("metrics registry missed the reconnects")
	}
	if inj.Stats().CutConns == 0 {
		t.Fatal("injector cut nothing")
	}
}

func TestResilientPartitionThenHeal(t *testing.T) {
	inj := chaos.New(11)
	c := &collect{}
	cl, _ := resilientPair(t, c, inj, ResilientOptions{})
	const n = 3000
	send := func(from, to int) {
		for i := from; i < to; i++ {
			if err := cl.Send(1, seqPayload(i)); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
	}
	send(0, 1000)
	inj.Partition() // cut conns AND refuse redials
	send(1000, 2000)
	// Give the writer time to notice the cut and have dials refused.
	waitFor(t, func() bool { return inj.Stats().RefusedDials > 0 })
	inj.Heal()
	send(2000, n)
	c.wait(t, n)
	verifyExactlyOnceInOrder(t, c, n)
	waitFor(t, func() bool { return cl.Health().Reconnects > 0 })
}

func TestResilientWireCorruptionRecovers(t *testing.T) {
	// A flipped byte on the wire fails the CRC at the receiver, which
	// drops the conn; the sender must reconnect and redeliver with no
	// loss. (This is the corrupt_test.go scenario for the fail-fast
	// transport, upgraded to recovery.)
	inj := chaos.New(23)
	c := &collect{}
	// Short ack watchdog: header-field corruption can wedge the receiver
	// mid-frame without any sender-visible IO error.
	cl, ln := resilientPair(t, c, inj, ResilientOptions{AckTimeout: 150 * time.Millisecond})
	const n = 4000
	for i := 0; i < n; i++ {
		if err := cl.Send(1, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			inj.CorruptOnce()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.n.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.n.Load() < n {
		t.Fatalf("only %d of %d arrived; health=%+v lnDups=%d injStats=%+v",
			c.n.Load(), n, cl.Health(), ln.DupsDropped(), inj.Stats())
	}
	verifyExactlyOnceInOrder(t, c, n)
	h := cl.Health()
	if h.Reconnects == 0 || h.Redelivered == 0 {
		t.Fatalf("corruption did not exercise recovery: %+v", h)
	}
	if inj.Stats().CorruptedWrites == 0 {
		t.Fatal("injector corrupted nothing")
	}
}

func TestResilientGivesUpAfterMaxAttempts(t *testing.T) {
	inj := chaos.New(3)
	c := &collect{}
	var termErr atomic.Value
	var downSeen atomic.Bool
	opts := ResilientOptions{
		MaxAttempts: 3,
		TCP:         TCPOptions{OnError: func(err error) { termErr.Store(err) }},
		OnStateChange: func(s LinkState) {
			if s == LinkDown {
				downSeen.Store(true)
			}
		},
	}
	cl, ln := resilientPair(t, c, inj, opts)
	if err := cl.Send(1, seqPayload(0)); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	ln.Close() // permanent outage: listener gone
	inj.Partition()
	// Sends keep queueing/journaling until the reconnect budget runs out.
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		lastErr = cl.Send(1, seqPayload(1))
		if lastErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lastErr == nil {
		t.Fatal("sends kept succeeding after the link permanently died")
	}
	waitFor(t, func() bool { return cl.State() == LinkDown })
	if err := cl.Err(); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("Err() = %v, want ErrGaveUp", err)
	}
	waitFor(t, func() bool { return termErr.Load() != nil })
	if err := termErr.Load().(error); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("OnError got %v, want ErrGaveUp", err)
	}
	if !downSeen.Load() {
		t.Fatal("OnStateChange never reported LinkDown")
	}
}

func TestResilientShedOldestBoundsJournal(t *testing.T) {
	inj := chaos.New(5)
	c := &collect{}
	payload := bytes.Repeat([]byte{1}, 1024)
	limit := int64(8 * (1024 + headerV2Size))
	reg := metrics.NewRegistry(nil)
	cl, _ := resilientPair(t, c, inj, ResilientOptions{
		ReplayLimit: limit,
		Policy:      DegradeShedOldest,
		MaxAttempts: 1000,
		Metrics:     reg,
	})
	// Stop acks from arriving: partition, then keep sending well past
	// the replay limit. Shed policy must keep Send non-blocking.
	inj.Partition()
	defer inj.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for cl.Health().Shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shed policy never shed despite journal overflow")
		}
		if err := cl.Send(1, payload); err != nil {
			t.Fatalf("shed policy must not fail Send: %v", err)
		}
	}
	// Stop sending and let the writer drain the outbound queue: each
	// frame it journals past the limit sheds one more, so comparing
	// mid-drain would race the writer, not test the counters.
	deadline = time.Now().Add(5 * time.Second)
	for last := uint64(0); cl.queue.Len() > 0 || cl.Health().Shed != last; {
		if time.Now().After(deadline) {
			t.Fatal("outbound queue never drained")
		}
		last = cl.Health().Shed
		time.Sleep(10 * time.Millisecond)
	}
	h := cl.Health()
	if h.ReplayBytes > limit {
		t.Fatalf("journal %d bytes exceeds limit %d", h.ReplayBytes, limit)
	}
	if got := reg.Counter("transport.frames_shed").Value(); got == 0 {
		t.Fatal("transport.frames_shed metric not incremented by shed policy")
	} else if got != h.Shed {
		t.Fatalf("transport.frames_shed = %d, link health shed = %d", got, h.Shed)
	}
}

func TestResilientBlockPolicyBlocksAtLimit(t *testing.T) {
	inj := chaos.New(9)
	c := &collect{}
	payload := bytes.Repeat([]byte{1}, 1024)
	cl, _ := resilientPair(t, c, inj, ResilientOptions{
		ReplayLimit: 4 * (1024 + headerV2Size),
		// Tiny outbound queue so blocked frames surface quickly.
		TCP: TCPOptions{OutboundHigh: 2048, OutboundLow: 1024},
	})
	inj.Partition()
	defer inj.Heal()
	blocked := make(chan struct{})
	var sent atomic.Int64
	go func() {
		for i := 0; i < 1000; i++ {
			if err := cl.Send(1, payload); err != nil {
				break
			}
			sent.Add(1)
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatalf("block policy let %d frames through a dead link", sent.Load())
	case <-time.After(200 * time.Millisecond):
		// Sender is stuck on journal+queue limits: correct.
	}
	if h := cl.Health(); h.Shed != 0 {
		t.Fatalf("block policy shed %d frames", h.Shed)
	}
	// Heal: the writer reconnects, the journal drains, senders resume,
	// and every frame arrives exactly once.
	inj.Heal()
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("sender never resumed after heal")
	}
	c.wait(t, 1000)
	if got := c.n.Load(); got != 1000 {
		t.Fatalf("delivered %d of 1000", got)
	}
}

func TestResilientListenerSpeaksV1(t *testing.T) {
	// A plain fail-fast TCP client (v1 frames) against the resilient
	// listener: frames pass through without dedup or acking.
	c := &collect{}
	ln, err := ListenResilient("127.0.0.1:0", c.handler, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cl, err := Dial(ln.Addr(), nil, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.Send(9, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, n)
	verifyExactlyOnceInOrder(t, c, n)
	if ln.AcksSent() != 0 {
		t.Fatal("listener acked unsequenced v1 traffic")
	}
}

// rawV2Frame encodes one v2 frame (header + payload) for tests that
// speak the wire protocol directly.
func rawV2Frame(flags uint8, seq uint64, payload []byte) []byte {
	var hdr [headerV2Size]byte
	putHeaderV2(hdr[:], 1, payload, flags, seq, 0)
	return append(hdr[:], payload...)
}

// dialRaw opens a plain TCP connection to addr and writes frames on it.
func dialRaw(t *testing.T, addr string, frames ...[]byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for _, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// TestResilientListenerRejectsRawHello sends a hello whose payload is a
// raw 8-byte link id instead of an EpochHello control message: the
// listener must bind no link state to it and deliver nothing.
func TestResilientListenerRejectsRawHello(t *testing.T) {
	c := &collect{}
	ln, err := ListenResilient("127.0.0.1:0", c.handler, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialRaw(t, ln.Addr(), rawV2Frame(flagHello, 0, binary.LittleEndian.AppendUint64(nil, 42)))
	deadline := time.Now().Add(5 * time.Second)
	for ln.ControlIn() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("listener never read the hello frame")
		}
		time.Sleep(time.Millisecond)
	}
	ln.mu.Lock()
	links := len(ln.links)
	ln.mu.Unlock()
	if links != 0 {
		t.Fatalf("raw hello bound %d link(s), want none", links)
	}
	if got := c.n.Load(); got != 0 {
		t.Fatalf("raw hello delivered %d frame(s), want none", got)
	}
}

// TestResilientListenerReconnectKeepsOrder reconnects a link while the
// old connection's serve goroutine is still inside the handler with
// frame 1: frame 2, sent on the new connection, must not reach the
// handler before frame 1 does.
func TestResilientListenerReconnectKeepsOrder(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []uint32
	handler := func(f Frame) {
		seq := binary.LittleEndian.Uint32(f.Payload)
		if seq == 1 {
			<-release
		}
		mu.Lock()
		order = append(order, seq)
		mu.Unlock()
	}
	ln, err := ListenResilient("127.0.0.1:0", handler, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hello, err := control.Encode(control.Message{Kind: control.KindEpochHello, LinkID: 7})
	if err != nil {
		t.Fatal(err)
	}
	dialRaw(t, ln.Addr(), rawV2Frame(flagHello|flagControl, 0, hello), rawV2Frame(0, 1, seqPayload(1)))
	// Wait until the old connection's goroutine is parked on frame 1.
	deadline := time.Now().Add(5 * time.Second)
	for ln.ControlIn() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("listener never read the first hello")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	dialRaw(t, ln.Addr(), rawV2Frame(flagHello|flagControl, 0, hello), rawV2Frame(0, 2, seqPayload(2)))
	time.Sleep(50 * time.Millisecond) // room for frame 2 to overtake
	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := append([]uint32(nil), order...)
		mu.Unlock()
		if len(got) == 2 {
			if got[0] != 1 || got[1] != 2 {
				t.Fatalf("handler saw frames %v, want [1 2]", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler saw frames %v, want [1 2]", got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResilientCloseDrainsQueuedFrames(t *testing.T) {
	c := &collect{}
	cl, _ := resilientPair(t, c, nil, ResilientOptions{})
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.Send(1, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	c.wait(t, n)
	verifyExactlyOnceInOrder(t, c, n)
	if err := cl.Send(1, seqPayload(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("double close")
	}
}

func TestResilientDeterministicBackoff(t *testing.T) {
	// Same seed -> same jitter sequence.
	a := &Resilient{opts: ResilientOptions{BackoffBase: 10 * time.Millisecond, BackoffMax: time.Second, Seed: 42}}
	a.opts.defaults()
	a.rng = newSeededRng(42)
	b := &Resilient{opts: ResilientOptions{BackoffBase: 10 * time.Millisecond, BackoffMax: time.Second, Seed: 42}}
	b.opts.defaults()
	b.rng = newSeededRng(42)
	for i := 0; i < 10; i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Fatalf("attempt %d: %v != %v", i, da, db)
		}
		exp := a.opts.BackoffBase << uint(i)
		if exp > a.opts.BackoffMax {
			exp = a.opts.BackoffMax
		}
		if da < exp/2 || da >= exp {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", i, da, exp/2, exp)
		}
	}
}

func TestChaosInjectorDeterminism(t *testing.T) {
	a, b := chaos.New(99), chaos.New(99)
	for i := 0; i < 1000; i++ {
		p := float64(i%10) / 10
		if a.Decide(p) != b.Decide(p) {
			t.Fatalf("draw %d diverged between equal seeds", i)
		}
	}
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatalf("Intn draw %d diverged", i)
		}
	}
}

func TestFaultyTransportDeterministicDrops(t *testing.T) {
	run := func(seed int64) (delivered int64) {
		c := &collect{}
		inner, err := NewInproc(c.handler, 1<<19, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		f := &Faulty{Inner: inner, Inj: chaos.New(seed), Drop: 0.3, Dup: 0.1}
		for i := 0; i < 1000; i++ {
			if err := f.Send(1, seqPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		return c.n.Load()
	}
	n1, n2 := run(4), run(4)
	if n1 != n2 {
		t.Fatalf("same seed delivered %d then %d frames", n1, n2)
	}
	if n1 == 1000 || n1 == 0 {
		t.Fatalf("fault schedule inert: delivered %d of 1000", n1)
	}
	if n3 := run(5); n3 == n1 {
		t.Logf("different seeds coincidentally delivered equally (%d)", n3)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResilientConcurrentSendFailClose races Send against injected
// connection cuts and a concurrent Close; run under -race it checks the
// reconnect machinery for data races and deadlocks rather than delivery.
func TestResilientConcurrentSendFailClose(t *testing.T) {
	inj := chaos.New(77)
	c := &collect{}
	cl, _ := resilientPair(t, c, inj, ResilientOptions{
		TCP: TCPOptions{OutboundHigh: 64 << 10, OutboundLow: 32 << 10},
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := cl.Send(uint32(g), seqPayload(i)); err != nil {
					return // closed under us: fine
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			select {
			case <-stop:
				return
			default:
			}
			inj.CutAll()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// recordingJournal captures the JournalObserver callback stream.
type recordingJournal struct {
	mu      sync.Mutex
	appends []uint64
	trimmed uint64
}

func (r *recordingJournal) JournalAppend(seq uint64, _ uint32, _ []byte) {
	r.mu.Lock()
	r.appends = append(r.appends, seq)
	r.mu.Unlock()
}

func (r *recordingJournal) JournalTrim(acked uint64) {
	r.mu.Lock()
	if acked > r.trimmed {
		r.trimmed = acked
	}
	r.mu.Unlock()
}

// TestResilientJournalObserver: the write-ahead hook must see every
// admitted frame, in sequence order, and the trim watermark must follow
// the cumulative acks all the way to the last frame.
func TestResilientJournalObserver(t *testing.T) {
	c := &collect{}
	jr := &recordingJournal{}
	cl, _ := resilientPair(t, c, nil, ResilientOptions{Journal: jr})
	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.Send(1, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, n)
	waitFor(t, func() bool {
		jr.mu.Lock()
		defer jr.mu.Unlock()
		return jr.trimmed >= n
	})
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if len(jr.appends) != n {
		t.Fatalf("observed %d appends, want %d", len(jr.appends), n)
	}
	for i, seq := range jr.appends {
		if seq != uint64(i+1) {
			t.Fatalf("append %d carries seq %d, want %d", i, seq, i+1)
		}
	}
}

// TestResilientEpochRewindsLinkDedup pins the recovery handshake: a fresh
// dialer reusing a link id at the SAME epoch has its restarted frame
// sequence discarded as duplicates (exactly what protects against
// post-reconnect replays), while a dialer carrying a HIGHER epoch — a
// supervisor rebuilding the link after a crash — makes the listener
// rewind its dedup cursor and accept the restarted sequence.
func TestResilientEpochRewindsLinkDedup(t *testing.T) {
	c := &collect{}
	reg := metrics.NewRegistry(nil)
	ln, err := ListenResilient("127.0.0.1:0", c.handler, ResilientOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	opts := ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		LinkID:      77,
	}
	const n = 100
	cl1, err := DialResilient(ln.Addr(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cl1.Send(1, seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, n)
	cl1.Close()

	// Same link id, same epoch: restarted sequence numbers are stale.
	cl2, err := DialResilient(ln.Addr(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl2.Send(1, seqPayload(n+i)); err != nil {
			t.Fatal(err)
		}
	}
	// The listener drops (and re-acks) every stale frame; nothing new is
	// delivered.
	waitFor(t, func() bool { return reg.Counter("transport.dup_frames_dropped").Value() >= 10 })
	cl2.Close()
	if got := c.n.Load(); got != n {
		t.Fatalf("same-epoch redial delivered %d frames, want %d (dups must drop)", got, n)
	}

	// Higher epoch: the dedup cursor rewinds and the fresh sequence lands.
	opts.Epoch = 1
	cl3, err := DialResilient(ln.Addr(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if got := cl3.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d, want 1", got)
	}
	if got := cl3.LinkID(); got != 77 {
		t.Fatalf("LinkID() = %d, want 77", got)
	}
	for i := 0; i < 10; i++ {
		if err := cl3.Send(1, seqPayload(n+10+i)); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, n+10)
}
