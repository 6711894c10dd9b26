// Package qos implements the decision half of NEPTUNE's latency-aware
// adaptive runtime (DESIGN §16): a per-job closed-loop controller in the
// style of Nephele Streaming's output-buffer adaptation. The data plane
// samples per-link sojourn (internal/buffer probes) and queue depth; the
// controller consumes one Sample per link per control tick and emits
// Actions — a discrete tuning level that the engine maps onto the link's
// flush timer, batch capacity, and gather-coalescing floor, plus
// chain/unchain requests that collapse lightly-loaded 1:1 co-located
// links into direct calls (NebulaStream-style operator fusion).
//
// The controller is deliberately clock-free and side-effect-free: it
// never reads time.Now, never touches a link, and is driven entirely by
// Tick calls — which is what makes the hysteresis law unit-testable
// under a fake clock and keeps all actuation (and its locking) in
// internal/core.
package qos

import (
	"sync"
	"time"
)

// Config tunes the controller law. The zero value is usable: Normalize
// fills defaults for every unset field.
type Config struct {
	// Target is the per-link p99 sojourn target. Zero disables latency
	// leveling (chaining decisions still run); the engine validates
	// negative targets before they get here.
	Target time.Duration
	// Ewma is the smoothing weight of a new observation (0 < Ewma <= 1).
	// Default 0.4: responsive within ~3 ticks, immune to one-tick spikes.
	Ewma float64
	// HotTicks is how many consecutive ticks a link's smoothed p99 must
	// exceed Target before the controller escalates one level. Default 2.
	HotTicks int
	// SlackTicks is how many consecutive ticks the smoothed p99 must sit
	// below Target*SlackFraction before the controller relaxes one level.
	// Relaxing is deliberately slower than escalating (default 5): a
	// latency violation is a contract breach, oscillation is just noise.
	SlackTicks int
	// SlackFraction is the relax deadband: only p99 < Target*SlackFraction
	// counts as slack, so a link hovering at the target neither escalates
	// nor relaxes. Default 0.5.
	SlackFraction float64
	// MaxLevel bounds escalation. Each level halves the link's batch
	// capacity, flush delay, and coalescing floor, so level 4 (default)
	// is a 16x latency bias over the configured baseline.
	MaxLevel int
	// ChainBelowPktsPerSec is the load under which a structurally
	// chainable link is fused: below this rate the scheduler hop
	// dominates the link's latency and fusion is nearly free. Default
	// 20000 (one packet per 50µs).
	ChainBelowPktsPerSec float64
	// UnchainFactor sets the break-fusion threshold at
	// ChainBelowPktsPerSec*UnchainFactor; the gap between the two is the
	// chaining hysteresis band. Default 2.
	UnchainFactor float64
	// ChainTicks is how many consecutive quiet ticks a chainable link
	// needs before the controller requests fusion; one hot tick above
	// the unchain threshold requests the break immediately (fusion is an
	// optimization, breaking it is load shedding). Default 3.
	ChainTicks int
	// Tick is the control period, used only to turn per-tick packet
	// counts into rates. Default 100ms.
	Tick time.Duration
}

// Normalize fills defaults in place and clamps nonsense.
func (c *Config) Normalize() {
	if c.Ewma <= 0 || c.Ewma > 1 {
		c.Ewma = 0.4
	}
	if c.HotTicks < 1 {
		c.HotTicks = 2
	}
	if c.SlackTicks < 1 {
		c.SlackTicks = 5
	}
	if c.SlackFraction <= 0 || c.SlackFraction >= 1 {
		c.SlackFraction = 0.5
	}
	if c.MaxLevel < 1 {
		c.MaxLevel = 4
	}
	if c.ChainBelowPktsPerSec <= 0 {
		c.ChainBelowPktsPerSec = 20000
	}
	if c.UnchainFactor <= 1 {
		c.UnchainFactor = 2
	}
	if c.ChainTicks < 1 {
		c.ChainTicks = 3
	}
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
}

// Sample is one control tick's observation of one link.
type Sample struct {
	// P50, P99 are the sojourn quantiles observed since the last tick
	// (from buffer probes, or the remote side's LatencyReport). Zero
	// means the link saw no traffic; the EWMA then decays toward zero
	// rather than holding stale heat.
	P50, P99 time.Duration
	// Depth is the receiver-side queue depth (packets waiting).
	Depth int
	// Packets is the count delivered since the last tick.
	Packets uint64
	// Chainable marks the link structurally eligible for fusion (1:1,
	// co-located — decided by the engine, not here).
	Chainable bool
	// Chained reports whether the link is currently fused.
	Chained bool
}

// Action is the controller's decision for one link on one tick.
type Action struct {
	// Level is the link's tuning level, 0 (baseline throughput tuning)
	// through Config.MaxLevel (maximum latency bias).
	Level int
	// LevelChanged reports that Level moved this tick, so the engine
	// should re-apply the link's knobs.
	LevelChanged bool
	// Chain asks the engine to fuse the link; Unchain to break it. At
	// most one is set, and only when it changes the current state.
	Chain, Unchain bool
}

// linkState is the controller's memory of one link.
type linkState struct {
	p50, p99    time.Duration // EWMA-smoothed
	level       int
	hotStreak   int
	slackStreak int
	quietStreak int // consecutive ticks below the chain threshold
}

// Counters tallies controller activity for Job.LatencyHealth.
type Counters struct {
	Escalations uint64 // level increases (latency bias added)
	Relaxations uint64 // level decreases (throughput restored)
	Chains      uint64 // fusion requests issued
	Unchains    uint64 // fusion breaks requested
}

// Controller runs the per-link hysteresis law. Safe for concurrent use,
// though the engine drives it from a single tick loop.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	links    map[uint64]*linkState
	counters Counters
}

// New builds a controller; cfg is normalized in place.
func New(cfg Config) *Controller {
	cfg.Normalize()
	return &Controller{cfg: cfg, links: make(map[uint64]*linkState)}
}

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Tick feeds one link observation through the law and returns the
// decision. Unknown ids are admitted at level 0.
func (c *Controller) Tick(id uint64, s Sample) Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.links[id]
	if st == nil {
		st = &linkState{}
		c.links[id] = st
	}
	// Smooth. A zero observation (idle tick) decays the EWMA toward
	// zero instead of freezing it, so a link that went quiet sheds its
	// latency bias after SlackTicks idle ticks.
	st.p50 = ewma(st.p50, s.P50, c.cfg.Ewma)
	st.p99 = ewma(st.p99, s.P99, c.cfg.Ewma)

	act := Action{Level: st.level}
	if c.cfg.Target > 0 {
		switch {
		case st.p99 > c.cfg.Target:
			st.hotStreak++
			st.slackStreak = 0
			if st.hotStreak >= c.cfg.HotTicks && st.level < c.cfg.MaxLevel {
				st.level++
				st.hotStreak = 0
				act.Level = st.level
				act.LevelChanged = true
				c.counters.Escalations++
			}
		case st.p99 < time.Duration(float64(c.cfg.Target)*c.cfg.SlackFraction):
			st.slackStreak++
			st.hotStreak = 0
			if st.slackStreak >= c.cfg.SlackTicks && st.level > 0 {
				st.level--
				st.slackStreak = 0
				act.Level = st.level
				act.LevelChanged = true
				c.counters.Relaxations++
			}
		default:
			// Deadband: inside [SlackFraction*Target, Target] both
			// streaks reset, so a link riding the target holds its level.
			st.hotStreak = 0
			st.slackStreak = 0
		}
	}

	// Chaining law, independent of the latency target: fuse quiet
	// links, break fused links that heat up.
	rate := float64(s.Packets) / c.cfg.Tick.Seconds()
	if s.Chained {
		st.quietStreak = 0
		if rate > c.cfg.ChainBelowPktsPerSec*c.cfg.UnchainFactor {
			act.Unchain = true
			c.counters.Unchains++
		}
	} else if s.Chainable {
		if rate < c.cfg.ChainBelowPktsPerSec {
			st.quietStreak++
			if st.quietStreak >= c.cfg.ChainTicks {
				act.Chain = true
				st.quietStreak = 0
				c.counters.Chains++
			}
		} else {
			st.quietStreak = 0
		}
	} else {
		st.quietStreak = 0
	}
	return act
}

// Forget drops a link's state (link rebuilt or retired).
func (c *Controller) Forget(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.links, id)
}

// Smoothed returns the link's EWMA'd quantiles and level (zeroes for an
// unknown link).
func (c *Controller) Smoothed(id uint64) (p50, p99 time.Duration, level int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.links[id]; st != nil {
		return st.p50, st.p99, st.level
	}
	return 0, 0, 0
}

// Counters returns a snapshot of the action tallies.
func (c *Controller) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Knobs maps a tuning level onto a link's baseline knobs: each level
// halves batch capacity, flush delay, and the gather-coalescing floor,
// clamped to useful minimums (1 byte capacity so every packet flushes
// immediately is reachable at high levels; 100µs flush delay; 1-byte
// coalesce floor disables write pooling entirely).
func Knobs(level, baseCapacity int, baseDelay time.Duration, baseFloor int) (capacity int, delay time.Duration, floor int) {
	capacity = baseCapacity >> uint(level)
	if capacity < 1 {
		capacity = 1
	}
	delay = baseDelay >> uint(level)
	if baseDelay > 0 && delay < 100*time.Microsecond {
		delay = 100 * time.Microsecond
	}
	floor = baseFloor >> uint(level)
	if floor < 1 {
		floor = 1
	}
	return capacity, delay, floor
}

// ewma folds sample into prev with weight w.
func ewma(prev, sample time.Duration, w float64) time.Duration {
	if prev == 0 {
		return sample
	}
	return time.Duration(float64(prev)*(1-w) + float64(sample)*w)
}
