package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
)

// Config carries a job's tuning knobs. Every optimization the paper
// evaluates can be toggled independently so the experiment harness can run
// ablations (buffering, batching, pooling, backpressure window sizes,
// compression).
type Config struct {
	// BufferSize is the application-level buffer capacity in bytes for
	// every outbound link buffer (paper default: 1 MB). Values < 1 mean
	// "buffering disabled": each packet flushes individually.
	BufferSize int

	// FlushInterval bounds how long a packet may wait in an outbound
	// buffer (the per-buffer timer of §III-B1). <= 0 disables the timer.
	FlushInterval time.Duration

	// Batching controls batched scheduling (§III-B2). When false, each
	// scheduled execution of a processor handles exactly one packet, the
	// per-message mode of Table I.
	Batching bool

	// Pooling controls object reuse (§III-B3). When false, packets and
	// buffers are freshly allocated, the no-reuse baseline.
	Pooling bool

	// InLowWatermark and InHighWatermark bound each processor's inbound
	// buffer in bytes (§III-B4). Defaults: 2 MiB / 4 MiB.
	InLowWatermark, InHighWatermark int64

	// OutLowWatermark and OutHighWatermark bound each transport's shared
	// outbound buffer in bytes. Defaults: 512 KiB / 1 MiB.
	OutLowWatermark, OutHighWatermark int64

	// CompressionThreshold is the entropy gate in bits/byte (§III-B5):
	// payloads below it are LZ-compressed. 0 disables compression
	// framing entirely; 8 compresses everything compressible.
	CompressionThreshold float64

	// VerifyOrdering enables per-stream sequence verification at
	// receivers, enforcing the paper's in-order, exactly-once
	// correctness requirement at runtime (used by tests; small cost).
	VerifyOrdering bool

	// DedupRemote drops packets arriving on remote links whose per-stream
	// sequence was already ingested. The resilient transport already
	// dedups redelivered frames per link; this second, packet-level guard
	// catches duplication the link layer cannot see (frame duplication by
	// fault injectors, a link recreated mid-job, v1 senders). Dropped
	// packets are counted in the engine's "packets_dup_dropped" counter.
	DedupRemote bool

	// PoolCapacity bounds the packet pool (idle packets). 0 defaults to
	// 65536.
	PoolCapacity int

	// Checkpoint configures crash recovery: periodic checkpointing of
	// operator state, heartbeat-based failure detection, and supervised
	// restart with upstream replay. The zero value disables recovery
	// entirely — no supervisor runs, no replay logs are kept, and the data
	// path is byte-for-byte the one without this feature.
	Checkpoint CheckpointConfig

	// FlowSignals publishes each inbound buffer's watermark transitions
	// (§III-B4) as control-plane advertisements that travel upstream and
	// hold the stream sources directly, instead of relying solely on the
	// blocked-writer chain (buffer -> transport -> emit) to reach them.
	// The blocking semantics stay in place as the paper-faithful fallback
	// — an advertisement lost or late costs latency, never correctness.
	// False (the default) leaves the data path byte-for-byte unchanged.
	FlowSignals bool

	// FlowLease bounds how long a watermark advertisement holds a source
	// without being refreshed. Gated buffers re-advertise every
	// FlowLease/3; a hold whose lease expires is dropped, so a lost
	// CreditGrant can stall a source for at most one lease. <= 0 defaults
	// to 100ms. Ignored unless FlowSignals is set.
	FlowLease time.Duration

	// Membership enables the cluster-membership layer: per-engine
	// membership nodes with an adaptive (phi-accrual) failure detector,
	// join/bootstrap through seed engines, eviction fencing, and
	// quorum-loss degraded mode. The zero value disables it entirely.
	Membership MembershipConfig

	// LatencyTarget enables the latency-aware adaptive QoS runtime
	// (DESIGN §16): a per-job closed loop that samples per-link sojourn
	// and retunes each link's batch capacity, flush timer, and
	// gather-coalescing floor until the job's p99 meets the target,
	// and fuses lightly-loaded co-located 1:1 links into direct calls
	// (operator chaining). The target is end-to-end: the controller
	// splits the budget evenly across the deepest source-to-sink link
	// path and holds every hop's sojourn to its share, so the sum meets
	// the job's goal. Zero (the default) disables the runtime
	// entirely — no probes, no controller, the data path is
	// byte-for-byte the untargeted one. Negative targets are rejected
	// with ErrBadLatencyTarget.
	//
	// Precedence vs. FlowSignals/FlowLease: the watermark backpressure
	// valves are a correctness mechanism and always win. When both want
	// to act on the same link, the QoS controller only ever retunes the
	// batching knobs (capacity, timer, coalesce floor) — it never
	// releases a watermark hold, widens a watermark band, or extends a
	// flow lease, so a source gated by a CreditGrant stays gated no
	// matter how much latency slack the controller sees. Conversely a
	// flow-gated (hence quiet) link reads as slack and sheds its
	// latency bias, which is benign: the knobs re-tighten within
	// HotTicks control periods once traffic resumes.
	LatencyTarget time.Duration

	// QoSTick is the control period of the QoS loop (sampling, level
	// moves, chain flips, LatencyReport publication). <= 0 defaults to
	// 100ms. Ignored unless LatencyTarget is set.
	QoSTick time.Duration
}

// Supervisor timing defaults, shared by CheckpointConfig and
// SupervisorOptions (zero values in either select these).
const (
	// DefaultHeartbeat is the liveness beacon period.
	DefaultHeartbeat = 10 * time.Millisecond
	// DefaultHeartbeatMisses is how many consecutive missed beats
	// declare an engine dead.
	DefaultHeartbeatMisses = 4
	// DefaultBarrierTimeout bounds checkpoint barriers and recovery
	// settling.
	DefaultBarrierTimeout = 5 * time.Second
	// DefaultSaveRetries is how many times one epoch's checkpoint Save
	// is attempted before the epoch is skipped (degrade-and-alarm).
	DefaultSaveRetries = 3
	// DefaultSaveBackoff is the base backoff between Save retries,
	// doubling per attempt.
	DefaultSaveBackoff = 5 * time.Millisecond
)

// MembershipConfig tunes the membership layer (DESIGN §12). A job with
// Enabled set is automatically supervised: every engine runs a
// membership node speaking NodeHello/NodeState/NodeLeave over the
// control plane, heartbeats feed a phi-accrual detector, and the
// supervisor consults the member map before recovering, fences evicted
// engines behind a bumped recovery epoch, and holds sources while the
// cluster lacks quorum.
type MembershipConfig struct {
	// Enabled opts the job into membership. All other fields are
	// ignored while false.
	Enabled bool

	// Seeds are the engine names dialed during join/bootstrap. Empty
	// defaults to the job's first engine.
	Seeds []string

	// SuspectThreshold and EvictThreshold are phi suspicion levels:
	// alive -> suspect at the first (default 3), suspect -> down at the
	// second (default 8). Supervised recovery only triggers for members
	// at or past down.
	SuspectThreshold float64
	EvictThreshold   float64

	// EvictAfter is how long a member must stay down before it is
	// evicted and fenced (default 10x the supervisor heartbeat).
	EvictAfter time.Duration

	// Quorum is how many reachable members (alive or suspect) the
	// cluster needs before sources are held in degraded mode. <= 0
	// selects a majority of the job's engines.
	Quorum int

	// Seed fixes the membership layer's jitter schedule (beacon phase,
	// join backoff) for deterministic tests.
	Seed int64
}

// CheckpointConfig tunes the crash-recovery subsystem. A job launched with
// a non-zero CheckpointConfig is automatically supervised: a Supervisor
// heartbeats every engine, checkpoints all operator state every Interval,
// and on a missed-heartbeat (or injected) crash revives the dead resource,
// restores the latest consistent epoch, and replays upstream traffic.
type CheckpointConfig struct {
	// Interval is the time between checkpoint epochs. <= 0 with a non-nil
	// Store means "no periodic checkpoints" (manual Supervisor.Checkpoint
	// only).
	Interval time.Duration

	// Store persists encoded snapshots. nil defaults to an in-memory
	// store, which survives engine crashes (the supervisor revives the
	// resource in-process) but not OS process death.
	Store checkpoint.Store

	// Heartbeat is the liveness beacon period (default 10ms); Misses is
	// how many consecutive missed beats declare an engine dead (default 4).
	Heartbeat time.Duration
	Misses    int

	// BarrierTimeout bounds the stop-the-world drain that makes each
	// checkpoint epoch consistent (default 5s).
	BarrierTimeout time.Duration
}

// Enabled reports whether the zero-value test for recovery passes: any
// field set opts the job into supervision.
func (c CheckpointConfig) Enabled() bool {
	return c.Interval > 0 || c.Store != nil
}

// DefaultConfig returns the paper's default configuration: 1 MB buffers,
// a 10 ms flush bound, batching and pooling on, compression off.
func DefaultConfig() Config {
	return Config{
		BufferSize:       1 << 20,
		FlushInterval:    10 * time.Millisecond,
		Batching:         true,
		Pooling:          true,
		InLowWatermark:   2 << 20,
		InHighWatermark:  4 << 20,
		OutLowWatermark:  512 << 10,
		OutHighWatermark: 1 << 20,
		VerifyOrdering:   false,
		DedupRemote:      true,
		PoolCapacity:     65536,
	}
}

// Config validation errors.
var (
	ErrBadWatermarks = errors.New("core: invalid watermarks")
	// ErrBadLatencyTarget rejects a negative Config.LatencyTarget: the
	// target must be positive to enable the QoS runtime (leave it zero
	// to disable the runtime entirely).
	ErrBadLatencyTarget = errors.New("core: Config.LatencyTarget must be positive (zero disables the QoS runtime)")
)

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.BufferSize < 1 {
		c.BufferSize = 1 // buffering effectively disabled: flush per packet
	}
	if c.InHighWatermark == 0 {
		c.InHighWatermark = 4 << 20
	}
	if c.InLowWatermark == 0 {
		c.InLowWatermark = c.InHighWatermark / 2
	}
	if c.OutHighWatermark == 0 {
		c.OutHighWatermark = 1 << 20
	}
	if c.OutLowWatermark == 0 {
		c.OutLowWatermark = c.OutHighWatermark / 2
	}
	if c.InLowWatermark >= c.InHighWatermark || c.InLowWatermark <= 0 {
		return fmt.Errorf("%w: inbound %d/%d", ErrBadWatermarks, c.InLowWatermark, c.InHighWatermark)
	}
	if c.OutLowWatermark >= c.OutHighWatermark || c.OutLowWatermark <= 0 {
		return fmt.Errorf("%w: outbound %d/%d", ErrBadWatermarks, c.OutLowWatermark, c.OutHighWatermark)
	}
	if c.CompressionThreshold < 0 || c.CompressionThreshold > 8 {
		return fmt.Errorf("core: compression threshold %v outside [0, 8]", c.CompressionThreshold)
	}
	if c.PoolCapacity <= 0 {
		c.PoolCapacity = 65536
	}
	if c.FlowLease <= 0 {
		c.FlowLease = 100 * time.Millisecond
	}
	if c.LatencyTarget < 0 {
		return fmt.Errorf("%w: got %v", ErrBadLatencyTarget, c.LatencyTarget)
	}
	if c.QoSTick <= 0 {
		c.QoSTick = 100 * time.Millisecond
	}
	return nil
}
