package main

import (
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	s := schedule{start: 1_000, rate: 200_000}
	for i, want := range []int64{1_000, 6_000, 11_000} {
		if got := s.due(uint64(i)); got != want {
			t.Errorf("due(%d) = %d, want %d", i, got, want)
		}
	}
	// Exact at large indexes: no drift from accumulating intervals.
	if got, want := s.due(2_000_000), int64(1_000+10*time.Second); got != want {
		t.Errorf("due(2e6) = %d, want %d", got, want)
	}
}

// fakeClock is a manual clock whose sleep advances time.
type fakeClock struct{ now int64 }

func (c *fakeClock) read() int64           { return c.now }
func (c *fakeClock) sleep(d time.Duration) { c.now += int64(d) }
func (c *fakeClock) stall(d time.Duration) { c.now += int64(d) }
func newFakePacer(c *fakeClock, rate uint64) *pacer {
	late := newWindows(1, int64(time.Hour), 128)
	late.arm(0)
	return &pacer{sched: schedule{start: 0, rate: rate}, now: c.read, sleep: c.sleep, late: late}
}

func TestPacerWaitsUntilDue(t *testing.T) {
	c := &fakeClock{}
	p := newFakePacer(c, 1000) // one packet per ms
	for k := 0; k < 5; k++ {
		i, due := p.wait()
		if i != uint64(k) || due != int64(k)*int64(time.Millisecond) {
			t.Fatalf("wait %d = (%d, %d)", k, i, due)
		}
		if c.now != due {
			t.Fatalf("packet %d sent at %d, due %d", k, c.now, due)
		}
	}
	if got := p.late.hists[0].Max(); got != 0 {
		t.Errorf("on-time generator recorded lateness %d", got)
	}
}

func TestPacerCountsStallAgainstEveryDuePacket(t *testing.T) {
	c := &fakeClock{}
	p := newFakePacer(c, 1000)
	p.wait() // packet 0 at t=0
	// The generator stalls for 3.5 ms: packets 1, 2 and 3 fell due during
	// the stall and go out at once, each as late as the stall made it.
	c.stall(3500 * time.Microsecond)
	var lateness []int64
	for k := 1; k <= 4; k++ {
		_, due := p.wait()
		lateness = append(lateness, c.now-due)
	}
	want := []int64{2_500_000, 1_500_000, 500_000, 0}
	for k := range want {
		if lateness[k] != want[k] {
			t.Errorf("packet %d late by %d, want %d", k+1, lateness[k], want[k])
		}
	}
	h := p.late.hists[0]
	if h.Count() != 5 || h.Max() < 2_480_000 || h.Max() > 2_500_000 {
		t.Errorf("lateness histogram count=%d max=%d, want 5 samples with max about 2.5ms", h.Count(), h.Max())
	}
	// Latency timed from due time includes the stall: a packet due at
	// 1 ms, sent at 3.5 ms and delivered 0.2 ms later reads 2.7 ms.
	lat := newWindows(1, int64(time.Hour), 128)
	lat.arm(0)
	due := p.sched.due(1)
	lat.record(due, 3_700_000-due)
	if got := lat.hists[0].Max(); got < 2_680_000 || got > 2_700_000 {
		t.Errorf("latency from due time = %d, want about 2.7ms", got)
	}
}
