package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/packet"
	"repro/internal/transport"
	"repro/internal/window"
)

// slidingMid is the stateful middle stage of the recovery acceptance
// tests: a sliding window over field "i" plus an input cursor. For an
// ordered, exactly-once input stream its output is fully deterministic —
// packet k carries seen == i+1 and the sliding sum of the last midWindow
// values — so the sink can detect lost *state* (not just lost packets)
// after a crash.
type slidingMid struct {
	win  *window.SlidingCount
	seen int64
}

const midWindow = 8

func newSlidingMid() *slidingMid {
	w, err := window.NewSlidingCount(midWindow)
	if err != nil {
		panic(err)
	}
	return &slidingMid{win: w}
}

func (m *slidingMid) Open(*OpContext) error { return nil }
func (m *slidingMid) Close() error          { return nil }

func (m *slidingMid) Process(ctx *OpContext, p *packet.Packet) error {
	v, err := p.Int64("i")
	if err != nil {
		return err
	}
	m.win.Add(float64(v))
	m.seen++
	out := ctx.NewPacket()
	out.AddInt64("i", v)
	out.AddInt64("seen", m.seen)
	out.AddFloat64("sum", m.win.Sum())
	return ctx.EmitDefault(out)
}

func (m *slidingMid) SnapshotState(*OpContext) ([]byte, error) {
	blob, err := m.win.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(binary.AppendVarint(nil, m.seen), blob...), nil
}

func (m *slidingMid) RestoreState(_ *OpContext, state []byte) error {
	seen, n := binary.Varint(state)
	if n <= 0 {
		return errors.New("slidingMid: bad state header")
	}
	m.seen = seen
	return m.win.UnmarshalBinary(state[n:])
}

// slidingSum is the expected deterministic sum for input value i.
func slidingSum(i int64) float64 {
	lo := i - midWindow + 1
	if lo < 0 {
		lo = 0
	}
	var sum float64
	for k := lo; k <= i; k++ {
		sum += float64(k)
	}
	return sum
}

// checkedSink wraps collectSink with per-packet validation of the
// deterministic mid output. Mismatches are counted, and the first one is
// kept for the failure message.
type checkedSink struct {
	*collectSink
	bad      atomic.Int64
	firstBad atomic.Pointer[string]
}

func newCheckedSink() *checkedSink {
	s := &checkedSink{collectSink: newCollectSink()}
	s.onProc = func(_ *OpContext, p *packet.Packet) error {
		i, err := p.Int64("i")
		if err != nil {
			return err
		}
		seen, err := p.Int64("seen")
		if err != nil {
			return err
		}
		sum, err := p.Float64("sum")
		if err != nil {
			return err
		}
		if seen != i+1 || sum != slidingSum(i) {
			if s.bad.Add(1) == 1 {
				msg := fmt.Sprintf("i=%d: seen=%d (want %d) sum=%v (want %v)",
					i, seen, i+1, sum, slidingSum(i))
				s.firstBad.Store(&msg)
			}
		}
		return nil
	}
	return s
}

func (s *checkedSink) assertDeterministic(t *testing.T) {
	t.Helper()
	if n := s.bad.Load(); n > 0 {
		t.Fatalf("%d packets carried wrong mid state; first: %s", n, *s.firstBad.Load())
	}
}

// recoveryJob wires the shared 3-engine schedule: source on A, stateful
// windowed mid on B, checking sink on C, resilient TCP links.
func recoveryJob(t *testing.T, cfg Config, rate float64, n int) (*Job, *checkedSink, *countingSource, []*Engine) {
	t.Helper()
	ea, err := NewEngine("rec-a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEngine("rec-b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := NewEngine("rec-c", cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{n: n}
	sink := newCheckedSink()
	j, err := NewJob(relaySpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return Throttle(rate, 64, src) })
	j.SetProcessor("relay", func(int) Processor { return newSlidingMid() })
	j.SetProcessor("receiver", func(int) Processor { return sink })
	place := func(op string, _ int) int {
		switch op {
		case "sender":
			return 0
		case "relay":
			return 1
		default:
			return 2
		}
	}
	bridger := NewResilientTCPBridger(transport.ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	engines := []*Engine{ea, eb, ec}
	if err := j.LaunchOn(engines, place, bridger); err != nil {
		t.Fatal(err)
	}
	return j, sink, src, engines
}

func waitRestarts(t *testing.T, j *Job, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.RecoveryHealth().Restarts < want {
		if time.Now().After(deadline) {
			t.Fatalf("stuck at %d restarts, want %d", j.RecoveryHealth().Restarts, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashRecoveryExactlyOnce is the crash-recovery acceptance test: a
// 3-stage stateful (windowed) job spread over three engines has its
// mid-pipeline engine killed by a seeded chaos injector after a
// checkpoint epoch completed. The supervisor detects the missed
// heartbeats, revives the engine, restores the checkpointed window and
// cursors, rebuilds the links under a new epoch, and replays retained
// upstream frames. The sink must see every packet exactly once, in
// order (VerifyOrdering), carrying the deterministic windowed state —
// i.e. zero lost packets, zero duplicates, zero lost state.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	const n = 6_000
	cfg := testConfig() // VerifyOrdering + DedupRemote on
	j, sink, _, _ := recoveryJob(t, cfg, 25_000, n)

	store := checkpoint.NewMemStore(0)
	sup, err := j.Supervise(SupervisorOptions{
		Heartbeat:      5 * time.Millisecond,
		Misses:         3,
		Store:          store,
		Replay:         true,
		BarrierTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Let the window warm up past its size, then pin a consistent epoch.
	waitCount(t, sink.collectSink, n/4)
	if err := sup.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if sup.Epoch() < 1 {
		t.Fatalf("epoch = %d after explicit checkpoint", sup.Epoch())
	}

	// Seeded chaos kill of the mid-pipeline engine: window contents,
	// dedup cursors, and emit cursors on rec-b all die with the process.
	inj := chaos.New(11)
	inj.RegisterKill("rec-b", func() { _ = sup.Kill("rec-b") })
	if !inj.KillResource("rec-b") {
		t.Fatal("kill hook did not fire")
	}
	waitRestarts(t, j, 1)

	finishJob(t, j)

	if got := sink.count.Load(); got != n {
		t.Fatalf("sink processed %d, want %d", got, n)
	}
	sink.exactlyOnce(t, n)
	sink.assertDeterministic(t)
	rh := j.RecoveryHealth()
	if rh.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1", rh.Restarts)
	}
	if rh.ReplayedPackets == 0 {
		t.Fatal("no packets were replayed")
	}
	if rh.CheckpointBytes == 0 {
		t.Fatal("no checkpoint bytes recorded")
	}
	if rh.Epoch < 1 {
		t.Fatalf("epoch = %d", rh.Epoch)
	}
	if ks := inj.Stats().Kills; ks != 1 {
		t.Fatalf("chaos kills = %d", ks)
	}
}

// TestCrashWithoutCheckpointingLosesData is the contrast run: the same
// schedule and kill, but restart-only supervision — no checkpoints, no
// replay. The revived mid stage comes back empty (seen resets, emit
// cursors restart at zero), so the surviving sink's link-dedup cursor
// silently swallows its re-emitted sequence numbers: data and state are
// demonstrably lost. VerifyOrdering is off because loss is the expected
// outcome here, not a failure.
func TestCrashWithoutCheckpointingLosesData(t *testing.T) {
	const n = 6_000
	cfg := testConfig()
	cfg.VerifyOrdering = false
	j, sink, _, _ := recoveryJob(t, cfg, 25_000, n)

	sup, err := j.Supervise(SupervisorOptions{
		Heartbeat: 5 * time.Millisecond,
		Misses:    3,
		// Replay off, store empty: restart-only supervision.
	})
	if err != nil {
		t.Fatal(err)
	}

	waitCount(t, sink.collectSink, n/4)
	inj := chaos.New(11)
	inj.RegisterKill("rec-b", func() { _ = sup.Kill("rec-b") })
	if !inj.KillResource("rec-b") {
		t.Fatal("kill hook did not fire")
	}
	waitRestarts(t, j, 1)

	if !j.WaitSources(30 * time.Second) {
		j.Stop(time.Second)
		t.Fatal("sources never finished")
	}
	if err := j.Stop(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if got := sink.count.Load(); got >= n {
		t.Fatalf("sink processed %d of %d — expected demonstrable loss without checkpointing", got, n)
	}
	if got := sink.count.Load(); got == 0 {
		t.Fatal("sink saw nothing at all")
	}
	if rh := j.RecoveryHealth(); rh.Restarts < 1 || rh.ReplayedPackets != 0 {
		t.Fatalf("recovery health = %+v", rh)
	}
}

// TestAutoSuperviseFromConfig exercises the Config.Checkpoint launch
// path: a non-zero Checkpoint config on LaunchOn must attach a
// supervisor automatically and take periodic barrier epochs without
// disturbing an otherwise healthy job.
func TestAutoSuperviseFromConfig(t *testing.T) {
	const n = 4_000
	cfg := testConfig()
	cfg.Checkpoint = CheckpointConfig{Interval: 20 * time.Millisecond}
	j, sink, _, _ := recoveryJob(t, cfg, 20_000, n)

	if _, err := j.Supervise(SupervisorOptions{}); !errors.Is(err, ErrAlreadySupervised) {
		t.Fatalf("second Supervise = %v, want ErrAlreadySupervised", err)
	}

	finishJob(t, j)
	if got := sink.count.Load(); got != n {
		t.Fatalf("sink processed %d, want %d", got, n)
	}
	sink.exactlyOnce(t, n)
	sink.assertDeterministic(t)
	rh := j.RecoveryHealth()
	if rh.Epoch < 1 {
		t.Fatalf("no checkpoint epoch completed: %+v", rh)
	}
	if rh.CheckpointBytes == 0 {
		t.Fatalf("no checkpoint bytes: %+v", rh)
	}
	if rh.Restarts != 0 {
		t.Fatalf("unexpected restarts: %+v", rh)
	}
}

// TestSuperviseRequiresLaunch pins the Supervise preconditions.
func TestSuperviseRequiresLaunch(t *testing.T) {
	j, err := NewJob(relaySpec(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Supervise(SupervisorOptions{}); !errors.Is(err, ErrNotLaunched) {
		t.Fatalf("Supervise before launch = %v, want ErrNotLaunched", err)
	}
}

// TestReconnectReplacesLinkHealth is the regression test for stale link
// health after a supervised rebuild: Reconnect must replace the severed
// link's health entry in place, not leave a dead entry (or grow the list)
// — otherwise Job.Err would keep reporting a link the supervisor already
// replaced.
func TestReconnectReplacesLinkHealth(t *testing.T) {
	const n = 6_000
	cfg := testConfig()
	j, sink, _, _ := recoveryJob(t, cfg, 25_000, n)
	sup, err := j.Supervise(SupervisorOptions{
		Heartbeat: 5 * time.Millisecond,
		Misses:    3,
		Replay:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := j.LinkHealth()
	if len(before) != 2 {
		t.Fatalf("expected 2 links (a->b, b->c), got %d", len(before))
	}
	waitCount(t, sink.collectSink, n/4)
	if err := sup.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Kill("rec-b"); err != nil {
		t.Fatal(err)
	}
	waitRestarts(t, j, 1)

	after := j.LinkHealth()
	if len(after) != len(before) {
		t.Fatalf("link count changed %d -> %d: rebuilt links must replace, not append", len(before), len(after))
	}
	for _, h := range after {
		if h.Err != nil {
			t.Fatalf("stale link error survived rebuild: %s: %v", h.Addr, h.Err)
		}
		if h.State == transport.LinkDown {
			t.Fatalf("link %s down after rebuild", h.Addr)
		}
	}
	finishJob(t, j)
	sink.exactlyOnce(t, n)
}
