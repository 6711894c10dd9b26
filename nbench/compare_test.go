package main

import "testing"

func TestCompareRule(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := boundSpec{Name: "throughput_pps", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name   string
		b      boundSpec
		change []float64
		want   string
		wins   int
	}{
		{"gain: 10/10 wins, gap beyond the parent's IQR", lower,
			[]float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 95}, verdictGain, 10},
		{"gain: 9/10 wins is enough", lower,
			[]float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 101}, verdictGain, 9},
		{"no gain: 8/10 wins", lower,
			[]float64{95, 96, 94, 95, 97, 93, 95, 96, 102, 101}, verdictUnchanged, 8},
		{"no gain: gap within the parent's IQR", lower,
			[]float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5}, verdictUnchanged, 10},
		{"ties count for neither side", lower,
			[]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, verdictUnchanged, 0},
		{"regression: worse than the bound", lower,
			[]float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, verdictRegression, 0},
		{"within the bound is not a regression", lower,
			[]float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, verdictUnchanged, 0},
		{"higher is better: a drop is a regression", higher,
			[]float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}, verdictRegression, 0},
		{"higher is better: a rise is a gain", higher,
			[]float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, verdictGain, 10},
		{"unresolved: the change's spread exceeds the bound", lower,
			[]float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, verdictUnresolved, 4},
	}
	for _, c := range cases {
		got := compare(c.b, parent, c.change)
		if got.verdict != c.want || got.wins != c.wins || got.pairs != 10 {
			t.Errorf("%s: verdict %s wins %d/%d, want %s wins %d/10", c.name, got.verdict, got.wins, got.pairs, c.want, c.wins)
		}
	}
}

func TestCompareAllBetterOverridesSpread(t *testing.T) {
	b := boundSpec{Better: "lower", Bound: 0.05}
	parent := []float64{100, 130, 110, 140, 120, 100, 130, 110, 140, 120} // spread > 5%
	change := []float64{50, 60, 55, 65, 52, 58, 61, 54, 63, 57}
	if got := compare(b, parent, change); got.verdict != verdictGain {
		t.Errorf("verdict %s, want gain: every change run beats every parent run", got.verdict)
	}
	change[0] = 101 // one run no longer beats every parent run
	if got := compare(b, parent, change); got.verdict != verdictUnresolved {
		t.Errorf("verdict %s, want unresolved", got.verdict)
	}
}
