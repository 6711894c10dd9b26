package main

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/debs"
	"repro/internal/packet"
)

// workload is one benchmark input: a three-operator pipeline (source ->
// mid -> sink) on two engines, with the mid stage on engine B and the
// source and sink on engine A, as in the paper's Fig. 1 relay.
type workload struct {
	name      string
	ops       [3]string // source, mid and sink operator names
	par       int       // mid and sink parallelism
	partition string    // partitioner on both links ("" = default)
	tcp       bool      // resilient loopback TCP instead of in-process links
	rate      uint64    // open-loop packets/s; 0 runs a closed loop
	// latEvery times one in latEvery packets in a closed loop (a power
	// of two), so the sink reads no clock for the rest. Open loops time
	// every packet from its due time.
	latEvery   uint64
	traceEvery uint64 // traced runs follow one in traceEvery packets
	config     func() core.Config
	newGen     func(seed int64) generator
	newMid     func() midLogic
}

// generator makes a workload's inputs from its seed. Input i is the i-th
// packet the source emits; it belongs to key keySeq(i).key with per-key
// sequence keySeq(i).seq.
type generator interface {
	keys() int
	keySeq(i uint64) (key int, seq uint64)
	// fill writes input i into p; traced inputs get a trace slot.
	fill(p *packet.Packet, i uint64, traced bool)
	// read returns a delivered packet's input index, and false when its
	// content is not what fill wrote.
	read(p *packet.Packet) (uint64, bool)
	// slot returns the 16-byte trace slot of a traced packet: the time
	// the packet was last emitted and the span that emitted it.
	slot(p *packet.Packet) []byte
}

// midLogic is one mid-stage instance's per-packet work before it
// forwards the packet. Instances are owned by one engine goroutine at a
// time.
type midLogic interface {
	process(p *packet.Packet) error
}

// workloads are the benchmark's inputs; README.md and BENCHMARK.json say why
// each was chosen.
var workloads = map[string]*workload{
	"relay-sat": {
		name: "relay-sat",
		ops:  [3]string{"sender", "relay", "receiver"}, par: 1,
		latEvery: 16, traceEvery: 2048,
		config: core.DefaultConfig,
		newGen: newRelayGen,
		newMid: func() midLogic { return forward{} },
	},
	"sensor-tcp": {
		name: "sensor-tcp",
		ops:  [3]string{"source", "monitor", "sink"}, par: 2, partition: "fields:machine",
		tcp: true, rate: 10_000, traceEvery: 8,
		// 64 KiB buffers fill in about 20 ms here, before a 50 ms timer
		// fires: flushes follow the packet rate, not timer precision,
		// which on a shared host drifts with load. gateway-qos keeps the
		// timer-flush case.
		config: func() core.Config {
			c := core.DefaultConfig()
			c.BufferSize = 64 << 10
			c.FlushInterval = 50 * time.Millisecond
			c.CompressionThreshold = 6.5
			return c
		},
		newGen: newSensorGen,
		newMid: func() midLogic { return &monitorMid{} },
	},
	"gateway-qos": {
		name: "gateway-qos",
		ops:  [3]string{"sender", "relay", "receiver"}, par: 1,
		rate: 200_000, traceEvery: 256,
		config: func() core.Config {
			c := core.DefaultConfig()
			c.FlushInterval = 50 * time.Millisecond
			c.LatencyTarget = 10 * time.Millisecond
			c.QoSTick = 5 * time.Millisecond
			return c
		},
		newGen: newRelayGen,
		newMid: func() midLogic { return forward{} },
	},
}

// spanNames are the names of a workload's spans: the two links' hops
// ("hop.<from>-<to>") and the mid and sink operators' processing
// ("<op>.process").
type spanNames struct{ hop1, hop2, mid, sink string }

func (w *workload) spans() spanNames {
	src, mid, sink := w.ops[0], w.ops[1], w.ops[2]
	return spanNames{
		hop1: "hop." + src + "-" + mid,
		hop2: "hop." + mid + "-" + sink,
		mid:  mid + ".process",
		sink: sink + ".process",
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- relay inputs ----

// Relay payloads are 50 bytes: the input index, a 16-byte trace slot
// (zero unless traced), and 26 bytes cut from a seeded table at an offset
// that depends on the index, which the sink compares.
const (
	relayPayload = 50
	relaySlot    = 8
	relayBody    = 24
	relayTable   = 4096
)

type relayGen struct {
	table []byte
	buf   [relayPayload]byte // source-side staging
}

func newRelayGen(seed int64) generator {
	g := &relayGen{table: make([]byte, relayTable)}
	rand.New(rand.NewSource(seed)).Read(g.table)
	return g
}

func (g *relayGen) keys() int                     { return 1 }
func (g *relayGen) keySeq(i uint64) (int, uint64) { return 0, i }
func (g *relayGen) slot(p *packet.Packet) []byte  { return p.FieldAt(0).Bytes()[relaySlot:relayBody] }
func (g *relayGen) body(i uint64) []byte {
	off := int(i*31) % (relayTable - relayPayload)
	return g.table[off : off+relayPayload-relayBody]
}
func (g *relayGen) fill(p *packet.Packet, i uint64, _ bool) {
	binary.LittleEndian.PutUint64(g.buf[:relaySlot], i)
	copy(g.buf[relayBody:], g.body(i))
	p.AddBytes("payload", g.buf[:])
}

func (g *relayGen) read(p *packet.Packet) (uint64, bool) {
	if p.NumFields() != 1 {
		return 0, false
	}
	b := p.FieldAt(0).Bytes()
	if len(b) != relayPayload {
		return 0, false
	}
	i := binary.LittleEndian.Uint64(b)
	return i, string(b[relayBody:]) == string(g.body(i))
}

type forward struct{}

func (forward) process(*packet.Packet) error { return nil }

// ---- sensor inputs ----

// machines is sensor-tcp's key count: input i is a reading of machine
// i % machines, the (i / machines)-th of that machine.
const machines = 64

type sensorGen struct {
	seed int64
	gens [machines]*debs.Generator // source-side, advanced in order
	zero [16]byte
}

func newSensorGen(seed int64) generator {
	g := &sensorGen{seed: seed}
	for m := range g.gens {
		g.gens[m] = debs.NewGenerator(machineSeed(seed, m))
	}
	return g
}

func machineSeed(seed int64, m int) int64 { return seed*1_000_003 + int64(m) + 1 }

func (g *sensorGen) keys() int { return machines }
func (g *sensorGen) keySeq(i uint64) (int, uint64) {
	return int(i % machines), i / machines
}

// Sensor packets carry the machine, the input index, an optional trace
// slot, then the 66 fields of a full DEBS reading.
func (g *sensorGen) fill(p *packet.Packet, i uint64, traced bool) {
	m, _ := g.keySeq(i)
	p.AddInt64("machine", int64(m))
	p.AddInt64("seq", int64(i))
	if traced {
		p.AddBytes("trace", g.zero[:])
	}
	debs.FillPacketFull(p, g.gens[m].Next())
}

func (g *sensorGen) read(p *packet.Packet) (uint64, bool) {
	if p.NumFields() < 2 || p.FieldAt(0).Name != "machine" || p.FieldAt(1).Name != "seq" {
		return 0, false
	}
	i := uint64(p.FieldAt(1).Int64())
	m, _ := g.keySeq(i)
	return i, p.FieldAt(0).Int64() == int64(m)
}

func (g *sensorGen) slot(p *packet.Packet) []byte {
	if f := p.FieldAt(2); f.Name == "trace" {
		return f.Bytes()
	}
	return nil
}

// actuations digests one machine's detected valve actuations.
type actuations struct {
	count int
	hash  uint64
}

func (a *actuations) add(acts []debs.Actuation) {
	for _, x := range acts {
		a.count++
		a.hash = (a.hash*1_000_003 ^ uint64(x.Sensor)) * 1_000_003
		a.hash = (a.hash ^ uint64(x.AtNs)) * 1_000_003
		a.hash ^= uint64(x.DelayNs)
	}
}

var errBadMachine = errors.New("reading has no valid machine key")

// monitorMid runs one debs.Monitor per machine it receives (keyed
// partitioning gives each machine to one instance) and forwards every
// reading.
type monitorMid struct {
	mons [machines]*debs.Monitor
	acts [machines]actuations
}

func (m *monitorMid) process(p *packet.Packet) error {
	machine := p.FieldAt(0).Int64()
	if machine < 0 || machine >= machines {
		return errBadMachine
	}
	mon := m.mons[machine]
	if mon == nil {
		mon = debs.NewMonitor(24 * time.Hour)
		m.mons[machine] = mon
	}
	acts, err := mon.Observe(p)
	if err != nil {
		return err
	}
	m.acts[machine].add(acts)
	return nil
}

// actuationMismatches counts the machines whose streamed actuations
// differ from a single-threaded monitor over the machine's accepted
// readings. A machine seen by two monitor instances counts as wrong too.
func actuationMismatches(seed int64, mids []*monitorMid, accepted []uint64) uint64 {
	var wrong uint64
	for k := 0; k < machines; k++ {
		var got actuations
		owners := 0
		for _, m := range mids {
			if m.mons[k] != nil {
				got = m.acts[k]
				owners++
			}
		}
		if owners > 1 || got != referenceActuations(seed, k, accepted[k]) {
			wrong++
		}
	}
	return wrong
}

// referenceActuations replays machine m's first n readings through a
// single-threaded monitor.
func referenceActuations(seed int64, m int, n uint64) actuations {
	gen := debs.NewGenerator(machineSeed(seed, m))
	mon := debs.NewMonitor(24 * time.Hour)
	var a actuations
	for k := uint64(0); k < n; k++ {
		r := gen.Next()
		a.add(mon.ObserveReading(r.TimestampNs, r.Sensors, r.Valves))
	}
	return a
}
