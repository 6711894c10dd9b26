package core

// Tests for the lock-free dispatch path: copy-on-write channel routing
// racing registration, the atomic engine clock, and the staged emit path's
// batch-for-batch equivalence with per-packet buffering.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/granules"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/transport"
)

// TestDispatchDuringChannelRegistration hammers Dispatch from several
// goroutines while channels are still being registered one by one. Frames
// for not-yet-registered channels must count as unknown-channel, never
// crash or tear the routing map, and every channel must route correctly
// once its registration lands.
func TestDispatchDuringChannelRegistration(t *testing.T) {
	const nCh = 32
	cfg := DefaultConfig()
	cfg.DedupRemote = false // dispatchers repeat the same frame
	e, err := NewEngine("race", cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc := ProcessorFunc(func(*OpContext, *packet.Packet) error { return nil })
	insts := make([]*instance, nCh)
	for i := range insts {
		inst, err := newInstance(e, graph.OperatorSpec{
			Name: fmt.Sprintf("sink%d", i), Kind: graph.KindProcessor, Parallelism: 1,
		}, 0, nil, proc)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Resource().Register(inst, granules.DataDriven{}); err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	if err := e.deploy(); err != nil {
		t.Fatal(err)
	}
	defer e.close()

	payload := benchFrame(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				e.Dispatch(transport.Frame{
					Channel: uint32((g + i) % nCh),
					Payload: payload,
				})
			}
		}(g)
	}
	for i := range insts {
		if err := e.registerChannel(uint32(i), insts[i]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Every channel routes now that registration finished.
	before := e.framesIn.Value()
	for i := range insts {
		e.Dispatch(transport.Frame{Channel: uint32(i), Payload: payload})
	}
	if got := e.framesIn.Value() - before; got != nCh {
		t.Fatalf("frames_in advanced by %d, want %d", got, nCh)
	}
	if !e.quiesce(10 * time.Second) {
		t.Fatal("engine did not quiesce")
	}
	for i, inst := range insts {
		if inst.processed.Value() == 0 {
			t.Fatalf("channel %d never delivered to its instance", i)
		}
	}
}

// TestSetClockConcurrentWithDispatch swaps the engine clock while frames
// flow; the atomic clock pointer makes this an ordinary data-plane race
// the detector must find nothing wrong with.
func TestSetClockConcurrentWithDispatch(t *testing.T) {
	const ch = 3
	cfg := DefaultConfig()
	cfg.DedupRemote = false
	e, err := NewEngine("clock", cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc := ProcessorFunc(func(*OpContext, *packet.Packet) error { return nil })
	inst, err := newInstance(e, graph.OperatorSpec{
		Name: "sink", Kind: graph.KindProcessor, Parallelism: 1,
	}, 0, nil, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.registerChannel(ch, inst); err != nil {
		t.Fatal(err)
	}
	if err := e.Resource().Register(inst, granules.DataDriven{}); err != nil {
		t.Fatal(err)
	}
	if err := e.deploy(); err != nil {
		t.Fatal(err)
	}
	defer e.close()

	payload := benchFrame(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Dispatch(transport.Frame{Channel: ch, Payload: payload})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				base := i
				e.SetClock(func() int64 { return base })
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if !e.quiesce(10 * time.Second) {
		t.Fatal("engine did not quiesce")
	}
}
