package main

import "testing"

func TestCheckerTally(t *testing.T) {
	a, b := newChecker(2), newChecker(2)
	// Key 0 on one sink: 0 1 2 4 3 3 — 4 and 3 swapped, 3 duplicated.
	for _, s := range []uint64{0, 1, 2, 4, 3, 3} {
		a.observe(0, s)
	}
	// Key 1 on the other sink: 0 2 — 1 lost; 9 was never accepted.
	for _, s := range []uint64{0, 2, 9} {
		b.observe(1, s)
	}
	b.observe(7, 0) // a key outside the workload's range
	f := tally([]*checker{a, b}, []uint64{5, 3})
	want := failures{lost: 1, dup: 1, ooo: 1, wrong: 2}
	if f != want {
		t.Errorf("tally = %+v, want %+v", f, want)
	}
	if f.total() != 5 {
		t.Errorf("total = %d, want 5", f.total())
	}
}

func TestCheckerCleanRun(t *testing.T) {
	c := newChecker(1)
	for s := uint64(0); s < 1000; s++ {
		c.observe(0, s)
	}
	if f := tally([]*checker{c}, []uint64{1000}); f.total() != 0 {
		t.Errorf("clean run tallied %+v", f)
	}
	// The last accepted emit not delivered is a loss.
	if f := tally([]*checker{c}, []uint64{1001}); f.lost != 1 || f.total() != 1 {
		t.Errorf("missing tail tallied %+v", f)
	}
}
