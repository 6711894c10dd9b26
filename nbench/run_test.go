package main

import (
	"testing"

	"repro/internal/packet"
)

// TestWorkloadsDeliverEverything runs every workload briefly and expects
// every accepted packet delivered once, in order, with the right content.
func TestWorkloadsDeliverEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, name := range workloadNames() {
		res, err := runWorkload(workloads[name], runConfig{seed: 7, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != 8 {
			t.Errorf("%s: %d end-to-end metrics, want 8", name, len(res.Metrics))
		}
	}
}

// corrupting flips a payload byte of one packet in every hundred.
type corrupting struct{ n int }

func (c *corrupting) process(p *packet.Packet) error {
	if c.n++; c.n%100 == 0 {
		p.FieldAt(0).Bytes()[relayPayload-1] ^= 0xff
	}
	return nil
}

func TestCorruptOutputFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for a few seconds")
	}
	w := *workloads["gateway-qos"]
	w.newMid = func() midLogic { return &corrupting{} }
	res, err := runWorkload(&w, runConfig{seed: 7, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted run: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestActuationMismatches(t *testing.T) {
	const seed, perMachine = 3, 3000
	gen := newSensorGen(seed).(*sensorGen)
	mids := []*monitorMid{{}, {}}
	accepted := make([]uint64, machines)
	skip := -1 // the index of one reading of machine 5 to leave out
	for i := uint64(0); i < perMachine*machines; i++ {
		p := &packet.Packet{}
		gen.fill(p, i, false)
		m, _ := gen.keySeq(i)
		accepted[m]++
		if m == 5 && skip < 0 && p.FieldAt(3).Bool() != p.FieldAt(6).Bool() {
			skip = int(i) // a reading taken while a valve lags its sensor
			continue
		}
		if err := mids[m%2].process(p); err != nil {
			t.Fatal(err)
		}
	}
	if skip < 0 {
		t.Fatal("no lagging reading to drop; pick another seed")
	}
	if got := actuationMismatches(seed, mids, accepted); got != 1 {
		t.Errorf("mismatches = %d, want 1 (machine 5 lost a reading)", got)
	}
}
