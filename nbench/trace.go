package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/stats"
)

// span is one timed call at a layer boundary. Spans of one packet share
// its trace id (the packet's emission index); parent is the index of the
// span that caused this one, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. Only sampled packets
// and the replays record spans, so a mutex is cheap enough.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, trace uint64, parent int32, start int64) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32, end int64) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose start and end are both known.
func (t *tracer) add(name string, trace uint64, parent int32, start, end int64) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap each other or
// run past their parent's end (a hop outlives the emit that started it);
// only the union of their intervals clipped to the parent counts.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		ivs := children[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered int64
		cur := s.Start // covered up to here
		for _, iv := range ivs {
			lo, hi := max(iv[0], cur), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = d - covered
	}
	return self
}

// byName groups values (one per span) by span name.
func byName(spans []span, vals []int64) map[string][]float64 {
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(vals[i]))
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

func durations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i, s := range spans {
		d[i] = s.End - s.Start
	}
	return d
}

// quantileOf returns the q-quantile of sorted values, or 0 when the sample
// does not leave ten values beyond q.
func quantileOf(sorted []float64, q float64) float64 {
	if !supports(uint64(len(sorted)), q) {
		return 0
	}
	return stats.Quantile(sorted, q)
}

// writeSpans writes every span with its self time as JSON lines.
func writeSpans(path string, spans []span, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self"`
		}{s, self[i]}); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
