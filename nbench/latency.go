package main

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond samples
// beyond percentile q (0 < q < 1).
func supports(n uint64, q float64) bool {
	beyond := math.Floor(float64(n)*(1-q) + 1e-9)
	return beyond >= minBeyond
}

// windows splits a measurement into fixed-width time windows, each with
// its own histogram, keyed by a sample's start time (a packet's due or
// emit time). Reporting the median of per-window percentiles keeps one
// stall from deciding a whole run's figure. Record is safe for concurrent
// use.
type windows struct {
	start atomic.Int64 // window 0 opens here (unix ns); MaxInt64 until armed
	width int64
	hists []*metrics.Histogram
}

// newWindows makes n windows of widthNs each. resolution is the
// histograms' sub-buckets per power of two: values are resolved to within
// 1/resolution of themselves.
func newWindows(n int, widthNs int64, resolution int) *windows {
	w := &windows{width: widthNs, hists: make([]*metrics.Histogram, n)}
	for i := range w.hists {
		w.hists[i] = metrics.NewHistogram(resolution)
	}
	w.start.Store(math.MaxInt64)
	return w
}

// arm opens window 0 at startNs.
func (w *windows) arm(startNs int64) { w.start.Store(startNs) }

// record adds value v for a sample that started at startNs. Samples
// outside the armed windows are ignored.
func (w *windows) record(startNs, v int64) {
	st := w.start.Load()
	if startNs < st {
		return
	}
	i := (startNs - st) / w.width
	if i >= int64(len(w.hists)) {
		return
	}
	w.hists[i].Record(v)
}

var errTooFewSamples = errors.New("too few samples for the percentile")

// median returns the median over windows of each window's q-quantile, in
// the recorded unit. Windows whose sample count does not support q are
// left out; if none supports it, the figure cannot be reported.
func (w *windows) median(q float64) (float64, error) {
	var per []float64
	for _, h := range w.hists {
		if supports(h.Count(), q) {
			per = append(per, float64(h.Quantile(q)))
		}
	}
	if len(per) == 0 {
		return 0, errTooFewSamples
	}
	sort.Float64s(per)
	return stats.Quantile(per, 0.5), nil
}
