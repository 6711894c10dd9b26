package core

import (
	"testing"

	"repro/internal/compression"
	"repro/internal/debs"
	"repro/internal/graph"
	"repro/internal/packet"
)

// TestIngestFrameZeroAllocSteadyState: with warm pools, ingesting a
// compressed frame of full DEBS readings allocates nothing — the decode
// buffer is drawn at the size the frame header states and goes back to
// its class, field names are reused from the pooled packets, and the
// inbound batch shell is recycled by its consumer.
func TestIngestFrameZeroAllocSteadyState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DedupRemote = false // the same frame is ingested repeatedly
	cfg.CompressionThreshold = 6.5
	e, err := NewEngine("ingest", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	proc := ProcessorFunc(func(*OpContext, *packet.Packet) error { return nil })
	inst, err := newInstance(e, graph.OperatorSpec{Name: "sink", Kind: graph.KindProcessor, Parallelism: 1}, 0, nil, proc)
	if err != nil {
		t.Fatal(err)
	}
	gen := debs.NewGenerator(3)
	batch := make([]*packet.Packet, 64)
	for i := range batch {
		p := &packet.Packet{StreamID: 1, Seq: uint64(i)}
		p.AddInt64("machine", int64(i%8))
		debs.FillPacketFull(p, gen.Next())
		batch[i] = p
	}
	var enc packet.Encoder
	sel := &compression.Selective{Threshold: cfg.CompressionThreshold}
	frame := sel.Encode(nil, enc.EncodeBatch(nil, batch))
	if compression.Mode(frame[0]) != compression.ModeCompressed {
		t.Fatal("setup: DEBS frame did not compress")
	}
	// One ingest plus what the consuming execution does with the batch:
	// take the packets out, recycle them, hand the shell back.
	cycle := func() {
		if err := inst.ingestFrame(frame); err != nil {
			t.Fatal(err)
		}
		b, ok := inst.dataset.Poll()
		if !ok || len(b.packets) != len(batch) {
			t.Fatal("ingested batch missing from the dataset")
		}
		for i, p := range b.packets {
			if !p.Equal(batch[i]) {
				t.Fatalf("packet %d decoded wrong", i)
			}
		}
		e.recycleBatch(b.packets)
		e.releaseInBatch(b)
	}
	for i := 0; i < 4; i++ {
		cycle() // warm the packet, buffer and batch pools
	}
	discards := e.bufPool.Stats().Discards
	allocs := testing.AllocsPerRun(100, cycle)
	if d := e.bufPool.Stats().Discards - discards; d != 0 {
		t.Fatalf("%d decode buffers fell out of their size class", d)
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	if allocs != 0 {
		t.Fatalf("ingestFrame allocated %v times per frame with warm pools", allocs)
	}
}
