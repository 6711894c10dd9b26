// Package core implements the NEPTUNE stream processing engine: operator
// instances hosted on Granules resources, a two-tier worker/IO thread
// model, capacity-based application-level buffering with timer-bounded
// flushes, batched scheduling, object reuse through pools, watermark
// backpressure, and entropy-gated compression — the full optimization set
// of paper §III-B.
package core

import (
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Source ingests an external stream into the graph (paper §III-A2). The
// engine runs one Source value per instance on a dedicated pump goroutine:
// Open once, then Next repeatedly until Next returns io.EOF (stream done)
// or the job stops, then Close once. Next emits packets through the
// OpContext; Emit blocks when downstream backpressure is active, which is
// how a source's ingestion rate is throttled to the slowest stage.
type Source interface {
	// Open prepares the source instance.
	Open(ctx *OpContext) error
	// Next produces the next packet (or a few packets). Returning io.EOF
	// ends the stream; any other error stops the instance and is
	// reported on the job.
	Next(ctx *OpContext) error
	// Close releases the source's resources.
	Close() error
}

// Processor encapsulates domain-specific logic for one stream packet
// (paper §III-A3). The engine schedules processor instances with the
// data-driven strategy: an instance runs only when packets are available
// on its inbound streams. Users write per-packet logic; the engine manages
// batched execution transparently.
type Processor interface {
	// Open prepares the processor instance.
	Open(ctx *OpContext) error
	// Process handles one packet. The packet is owned by the engine: it
	// is recycled after Process returns unless it is re-emitted via
	// ctx.Emit (the relay pattern), and must not be retained otherwise.
	Process(ctx *OpContext, p *packet.Packet) error
	// Close releases the processor's resources.
	Close() error
}

// StatefulProcessor is an optional extension of Processor: operators that
// carry state across packets (windows, counters, models) expose it so the
// checkpointing supervisor can capture and restore it around a crash.
// SnapshotState runs at a checkpoint barrier — the engine guarantees no
// Process/Tick call is in flight — and returns an opaque blob;
// RestoreState receives that blob on a freshly-Opened instance after a
// supervised restart. Operators whose snapshot/restore round-trips
// deterministically get effectively-once recovery; opaque (non-stateful)
// operators fall back to at-least-once (see DESIGN §8.1).
type StatefulProcessor interface {
	Processor
	// SnapshotState serializes the instance's state.
	SnapshotState(ctx *OpContext) ([]byte, error)
	// RestoreState rebuilds the instance's state from a SnapshotState
	// blob. It is called after Open and before any Process call.
	RestoreState(ctx *OpContext, state []byte) error
}

// SourceFactory builds one Source per instance. The instance index is in
// [0, parallelism).
type SourceFactory func(instance int) Source

// ProcessorFactory builds one Processor per instance.
type ProcessorFactory func(instance int) Processor

// SourceFunc adapts a plain Next function into a Source.
type SourceFunc func(ctx *OpContext) error

// Open is a no-op.
func (SourceFunc) Open(*OpContext) error { return nil }

// Next calls the function.
func (f SourceFunc) Next(ctx *OpContext) error { return f(ctx) }

// Close is a no-op.
func (SourceFunc) Close() error { return nil }

// ProcessorFunc adapts a plain Process function into a Processor.
type ProcessorFunc func(ctx *OpContext, p *packet.Packet) error

// Open is a no-op.
func (ProcessorFunc) Open(*OpContext) error { return nil }

// Process calls the function.
func (f ProcessorFunc) Process(ctx *OpContext, p *packet.Packet) error { return f(ctx, p) }

// Close is a no-op.
func (ProcessorFunc) Close() error { return nil }

// OpContext is the per-instance execution context handed to Sources and
// Processors. It provides packet allocation (from the engine's pool) and
// emission onto outgoing links. An OpContext is bound to one instance and
// must not be shared across goroutines; the engine guarantees Process and
// Next calls for one instance never overlap.
type OpContext struct {
	inst *instance

	// forwarded marks that the inbound packet was re-emitted and so must
	// not be recycled by the engine after Process returns.
	forwarded bool
	// current is the inbound packet being processed (nil inside sources).
	current *packet.Packet
}

// NewPacket returns a clean packet from the engine's pool.
// Packets obtained here and not emitted should be returned with Recycle.
func (c *OpContext) NewPacket() *packet.Packet {
	return c.inst.engine.pktPool.Get()
}

// Recycle returns an unemitted packet to the engine's pool.
func (c *OpContext) Recycle(p *packet.Packet) {
	c.inst.engine.pktPool.Put(p)
}

// Emit routes p onto the named outgoing link. Ownership of p transfers to
// the engine. Emit blocks while downstream backpressure is active; the
// returned error is non-nil only when the job is shutting down.
func (c *OpContext) Emit(link string, p *packet.Packet) error {
	return c.inst.emit(c, link, p)
}

// EmitDefault routes p onto the instance's only outgoing link; it panics
// when the operator has zero or multiple outgoing links (use Emit there).
func (c *OpContext) EmitDefault(p *packet.Packet) error {
	outs := c.inst.outs
	if len(outs) != 1 {
		panic("core: EmitDefault requires exactly one outgoing link; use Emit(link, p)")
	}
	return c.inst.emitOn(c, outs[0], p)
}

// Instance returns the operator instance index in [0, Parallelism()).
func (c *OpContext) Instance() int { return c.inst.idx }

// Parallelism returns the operator's instance count.
func (c *OpContext) Parallelism() int { return c.inst.op.Parallelism }

// Operator returns the operator's name.
func (c *OpContext) Operator() string { return c.inst.op.Name }

// Engine returns the hosting engine's name.
func (c *OpContext) Engine() string { return c.inst.engine.name }

// Metrics returns the hosting engine's metric registry.
func (c *OpContext) Metrics() *metrics.Registry { return c.inst.engine.metrics }

// NowNanos returns the engine clock, used for latency stamping.
func (c *OpContext) NowNanos() int64 { return c.inst.engine.now() }
