package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "source.next", Parent: -1, Start: 0, End: 100},
		{Name: "core.emit", Parent: 0, Start: 20, End: 50},
		// A hop starts inside its parent and outlives it: only the
		// part up to the parent's end is covered.
		{Name: "hop.hop1", Parent: 0, Start: 40, End: 300},
		{Name: "mid.process", Parent: 2, Start: 300, End: 360},
		// Children overlapping each other count once.
		{Name: "core.emit", Parent: 3, Start: 310, End: 330},
		{Name: "hop.hop2", Parent: 3, Start: 320, End: 340},
		{Name: "sink.process", Parent: 5, Start: 500, End: 510},
	}
	want := []int64{
		100 - 80, // covered by [20, 100)
		30,
		260,     // mid.process starts at the hop's end: no overlap
		60 - 30, // covered by [310, 340)
		20,
		20,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeChildOutsideParent(t *testing.T) {
	spans := []span{
		{Name: "a", Parent: -1, Start: 100, End: 200},
		{Name: "b", Parent: 0, Start: 0, End: 50},    // entirely before
		{Name: "c", Parent: 0, Start: 150, End: 400}, // overlaps the end
	}
	if got := selfTimes(spans)[0]; got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
}
