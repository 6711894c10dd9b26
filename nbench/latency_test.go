package main

import (
	"errors"
	"testing"
)

func TestSupportsNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    uint64
		q    float64
		want bool
	}{
		{20, 0.5, true},
		{19, 0.5, false},
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestWindowsMedianSkipsUnsupportedWindows(t *testing.T) {
	w := newWindows(3, 1000, 128)
	w.arm(0)
	// Window 0: 1000 samples of 100 — supports p99.
	// Window 1: 1000 samples of 300 — supports p99.
	// Window 2: 50 samples of 100000 — too few for p99, enough for p50.
	for i := 0; i < 1000; i++ {
		w.record(10, 100)
		w.record(1010, 300)
	}
	for i := 0; i < 50; i++ {
		w.record(2010, 100000)
	}
	w.record(-5, 1)   // before window 0: ignored
	w.record(3000, 1) // after the last window: ignored
	if n := w.hists[0].Count() + w.hists[1].Count() + w.hists[2].Count(); n != 2050 {
		t.Fatalf("recorded %d samples, want 2050 (out-of-range ones ignored)", n)
	}
	p99, err := w.median(0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Median of {100, 300}: window 2 is left out.
	if p99 < 198 || p99 > 202 {
		t.Errorf("p99 median = %v, want about 200", p99)
	}
	p50, err := w.median(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 < 297 || p50 > 301 {
		t.Errorf("p50 median = %v, want about 300 (median of 100, 300, 100000)", p50)
	}
	if _, err := newWindows(1, 1000, 128).median(0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("empty windows: err = %v, want errTooFewSamples", err)
	}
}
