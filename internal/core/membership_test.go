package core

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/control"
	"repro/internal/membership"
)

// membershipJob builds a two-engine relay job (sender on node-a, relay
// and receiver on node-b) with membership enabled, launched over the
// in-process bridger so control frames travel named direct links the
// chaos filter can cut per direction.
func membershipJob(t *testing.T, n int, rate float64) (*Job, *collectSink) {
	t.Helper()
	cfg := testConfig()
	cfg.Membership = MembershipConfig{
		Enabled:    true,
		EvictAfter: 40 * time.Millisecond,
		Seed:       7,
	}
	ea, err := NewEngine("node-a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEngine("node-b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(relaySpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("sender", func(int) Source { return Throttle(rate, 64, src) })
	j.SetProcessor("relay", func(int) Processor { return relayProc{} })
	j.SetProcessor("receiver", func(int) Processor { return sink })
	place := func(op string, _ int) int {
		if op == "sender" {
			return 0
		}
		return 1
	}
	if err := j.LaunchOn([]*Engine{ea, eb}, place, nil); err != nil {
		t.Fatal(err)
	}
	return j, sink
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMembershipPartitionEvictRejoinExactlyOnce is the membership
// acceptance test (ISSUE 6): a seeded asymmetric partition cuts node-b's
// control frames toward node-a while the reverse direction keeps
// flowing. node-a's adaptive detector walks node-b alive -> suspect ->
// down -> evicted (stamps in order), the eviction bumps the fence epoch,
// quorum is lost so the job degrades and holds its source; a stale-
// incarnation hello is rejected at the fence; node-b hears of its own
// eviction over the open direction and self-evicts. Healing the
// partition lets node-b re-join under a bumped incarnation, degraded
// mode lifts, and the stream finishes with exactly-once delivery intact.
func TestMembershipPartitionEvictRejoinExactlyOnce(t *testing.T) {
	const n = 30_000
	j, sink := membershipJob(t, n, 20_000)
	defer j.Stop(30 * time.Second)

	inj := chaos.New(11)
	j.SetControlFilter(inj.DropOneWay)

	nodeA, nodeB := j.MembershipNode("node-a"), j.MembershipNode("node-b")
	if nodeA == nil || nodeB == nil {
		t.Fatal("membership nodes not wired")
	}
	waitUntil(t, 5*time.Second, "bootstrap", func() bool {
		return nodeB.Joined() && j.MembershipHealth().Reachable == 2
	})
	staleInc := nodeB.Incarnation()

	inj.PartitionOneWay("node-b", "node-a")

	waitUntil(t, 10*time.Second, "eviction of node-b", func() bool {
		mem, ok := nodeA.Member("node-b")
		return ok && mem.State == membership.StateEvicted
	})
	mem, _ := nodeA.Member("node-b")
	if mem.SuspectAt.After(mem.DownAt) || mem.DownAt.After(mem.EvictedAt) {
		t.Fatalf("transition stamps out of order: %+v", mem)
	}
	waitUntil(t, 5*time.Second, "degraded mode + fence epoch", func() bool {
		h := j.MembershipHealth()
		return h.Degraded && h.FenceEpochs >= 1 && h.Evictions >= 1
	})
	waitUntil(t, 5*time.Second, "source held on quorum loss", func() bool {
		return j.FlowHealth().SourcesGated >= 1
	})

	// A hello replaying node-b's fenced incarnation must be refused.
	j.Engines()[0].bus().Publish(control.Message{
		Kind:   control.KindNodeHello,
		Origin: "node-b",
		Op:     "node-b",
		Epoch:  staleInc,
	})
	if h := j.MembershipHealth(); h.RejectedJoins < 1 {
		t.Fatalf("stale hello not rejected: %+v", h)
	}

	// The open a -> b direction carries the eviction verdict: node-b
	// learns it is fenced, bumps its incarnation, and re-enters the join
	// loop (whose hellos the partition still drops).
	waitUntil(t, 10*time.Second, "node-b self-eviction", func() bool {
		return nodeB.Stats().SelfEvictions >= 1
	})

	inj.HealOneWay("node-b", "node-a")

	waitUntil(t, 10*time.Second, "re-join under new incarnation", func() bool {
		m, ok := nodeA.Member("node-b")
		return ok && m.State == membership.StateAlive && m.Incarnation > staleInc &&
			nodeB.Joined() && nodeB.Incarnation() > staleInc
	})
	waitUntil(t, 5*time.Second, "degraded mode lifted", func() bool {
		h := j.MembershipHealth()
		return !h.Degraded && h.Reachable == 2
	})

	finishJob(t, j)
	sink.exactlyOnce(t, n)
	if drops := inj.Stats().OneWayDrops; drops == 0 {
		t.Fatal("partition never dropped a control frame")
	}
}

// TestMembershipHealthDisabled pins the zero snapshot: a job without
// membership reports Enabled=false and no members.
func TestMembershipHealthDisabled(t *testing.T) {
	const n = 200
	src := &countingSource{n: n}
	sink := newCollectSink()
	j, err := NewJob(twoStageSpec(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.SetSource("src", func(int) Source { return src })
	j.SetProcessor("sink", func(int) Processor { return sink })
	runToCompletion(t, j)
	if h := j.MembershipHealth(); h.Enabled || len(h.Members) != 0 {
		t.Fatalf("membership health of plain job = %+v", h)
	}
}

// TestMembershipBootstrapAndCleanFinish pins the no-fault path: a
// membership-enabled job bootstraps (every node joined, full
// reachability, no degraded entry) and finishes exactly-once with zero
// evictions, refutations, or rejected joins — the detector must not
// false-positive under ordinary scheduling jitter.
func TestMembershipBootstrapAndCleanFinish(t *testing.T) {
	const n = 5_000
	j, sink := membershipJob(t, n, 0)
	defer j.Stop(30 * time.Second)

	waitUntil(t, 5*time.Second, "bootstrap", func() bool {
		return j.MembershipHealth().Reachable == 2
	})
	finishJob(t, j)
	sink.exactlyOnce(t, n)
	h := j.MembershipHealth()
	if h.Evictions != 0 || h.RejectedJoins != 0 || h.SelfEvictions != 0 {
		t.Fatalf("clean run took fault-path actions: %+v", h)
	}
	if h.DegradedTransitions != 0 {
		t.Fatalf("clean run entered degraded mode: %+v", h)
	}
}
