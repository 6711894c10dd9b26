package core

// Dispatch-path benchmarks. Dispatch is the engine's per-frame entry from
// transport IO goroutines; its fixed cost (routing lookup, counters,
// decode, dataset put, schedule) multiplies with every inbound frame, so
// the small-packet IoT regime the paper targets lives or dies on it. The
// instance sweep pins each concurrent sender to one inbound channel — and
// so to one destination instance — measuring how dispatch scales when the
// fan-in spreads over several instances sharing the engine's one resource
// and pool pair (run with -cpu to vary the core budget).

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/granules"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/transport"
)

// benchDispatchEngine builds a deployed engine hosting one trivial sink
// processor per inbound channel, mirroring the launcher's wiring for
// remote link receivers.
func benchDispatchEngine(b *testing.B, chans []uint32) *Engine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.DedupRemote = false // dedup would drop the repeated bench frames
	// Default watermarks bound the inbound backlog (realistic steady
	// state: senders stall on the high watermark); size the pool to cover
	// the whole watermark-bounded in-flight set so packet reuse works.
	cfg.PoolCapacity = 1 << 20
	e, err := NewEngine("bench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i, ch := range chans {
		proc := ProcessorFunc(func(*OpContext, *packet.Packet) error { return nil })
		inst, err := newInstance(e, graph.OperatorSpec{
			Name: fmt.Sprintf("sink%d", i), Kind: graph.KindProcessor, Parallelism: 1,
		}, 0, nil, proc)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.registerChannel(ch, inst); err != nil {
			b.Fatal(err)
		}
		if err := e.Resource().Register(inst, granules.DataDriven{}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.deploy(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.close() })
	return e
}

// benchFrame encodes one wire frame carrying pkts small packets.
func benchFrame(pkts int) []byte {
	var enc packet.Encoder
	batch := make([]*packet.Packet, pkts)
	for i := range batch {
		p := &packet.Packet{}
		p.StreamID = 1
		p.Seq = uint64(i)
		p.AddInt64("v", int64(i))
		batch[i] = p
	}
	return enc.EncodeBatch(nil, batch)
}

// BenchmarkDispatchConcurrent measures Engine.Dispatch throughput with
// several concurrent senders, the transport-IO fan-in the two-tier thread
// model must absorb without serializing. Each op is one inbound frame
// (decode + route + enqueue + schedule); pkts/s counts the packets inside.
// The insts sub-sweep spreads the senders over that many destination
// instances: each sender goroutine targets one channel, and every
// channel's instance shares the engine's resource and pools.
func BenchmarkDispatchConcurrent(b *testing.B) {
	for _, insts := range []int{1, 2, 4} {
		for _, pkts := range []int{1, 16} {
			b.Run(fmt.Sprintf("insts=%d/pkts=%d", insts, pkts), func(b *testing.B) {
				chans := make([]uint32, insts)
				for i := range chans {
					chans[i] = uint32(7 + i)
				}
				e := benchDispatchEngine(b, chans)
				payload := benchFrame(pkts)
				var next atomic.Uint32
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				b.SetParallelism(4) // IO goroutines outnumber cores
				b.RunParallel(func(pb *testing.PB) {
					ch := chans[int(next.Add(1)-1)%len(chans)]
					f := transport.Frame{Channel: ch, Payload: payload}
					for pb.Next() {
						e.Dispatch(f)
					}
				})
				if !e.quiesce(10 * time.Second) {
					b.Fatal("engine did not quiesce")
				}
				elapsed := time.Since(start)
				b.StopTimer()
				b.ReportMetric(float64(b.N*pkts)/elapsed.Seconds(), "pkts/s")
			})
		}
	}
}

// BenchmarkDispatchUnknownChannel isolates the routing miss path: no
// decode, no dataset — just the table lookup and the error counters. This
// is the purest view of the per-frame routing overhead.
func BenchmarkDispatchUnknownChannel(b *testing.B) {
	e := benchDispatchEngine(b, []uint32{7})
	f := transport.Frame{Channel: 9999, Payload: nil}
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e.Dispatch(f)
		}
	})
}
