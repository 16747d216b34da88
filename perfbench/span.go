package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It
// belongs to one goroutine. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
//
// Every span feeds its layer's aggregate (count, busy time, self time);
// the first keepPerLayer spans of each layer are also kept whole and
// written out as JSON when the run ends.
type tracer struct {
	epoch   time.Time
	open    []openSpan
	kept    []spanRecord
	keptPer map[string]int
	aggs    map[string]*layerAgg
}

type openSpan struct {
	name  string
	id    int64
	start time.Time
	child time.Duration // time covered by direct children
}

// spanRecord is one span as written to the trace file.
type spanRecord struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 for a root span
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// layerAgg is one layer's totals.
type layerAgg struct {
	Count int64         `json:"count"`
	Busy  time.Duration `json:"busy_ns"`
	Self  time.Duration `json:"self_ns"`
}

const keepPerLayer = 2000

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, keptPer: make(map[string]int), aggs: make(map[string]*layerAgg)}
}

// spanSeq numbers spans across every tracer of the process.
var spanSeq atomic.Int64

// begin opens a span; end closes the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.open = append(t.open, openSpan{name: name, id: spanSeq.Add(1), start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now.Sub(s.start)
	var parent int64
	if n := len(t.open); n > 0 {
		t.open[n-1].child += dur
		parent = t.open[n-1].id
	}
	a := t.aggs[s.name]
	if a == nil {
		a = &layerAgg{}
		t.aggs[s.name] = a
	}
	a.Count++
	a.Busy += dur
	a.Self += dur - s.child
	if t.keptPer[s.name] < keepPerLayer {
		t.keptPer[s.name]++
		t.kept = append(t.kept, spanRecord{Name: s.name, ID: s.id, Parent: parent,
			StartNs: s.start.Sub(t.epoch).Nanoseconds(), EndNs: now.Sub(t.epoch).Nanoseconds()})
	}
}

// spans merges the per-goroutine tracers of one run.
type spans struct {
	aggs map[string]*layerAgg
	kept []spanRecord
}

func (s *spans) add(t *tracer) {
	if t != nil {
		s.merge(spans{t.aggs, t.kept})
	}
}

func (s *spans) merge(o spans) {
	if s.aggs == nil {
		s.aggs = make(map[string]*layerAgg)
	}
	for name, a := range o.aggs {
		m := s.aggs[name]
		if m == nil {
			m = &layerAgg{}
			s.aggs[name] = m
		}
		m.Count += a.Count
		m.Busy += a.Busy
		m.Self += a.Self
	}
	s.kept = append(s.kept, o.kept...)
}

// meanNs is the mean busy time per span of a layer, in nanoseconds.
func (s *spans) meanNs(name string) float64 {
	a := s.aggs[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return float64(a.Busy.Nanoseconds()) / float64(a.Count)
}

// selfMeanNs is the mean self time per span of a layer, in nanoseconds.
func (s *spans) selfMeanNs(name string) float64 {
	a := s.aggs[name]
	if a == nil || a.Count == 0 {
		return 0
	}
	return float64(a.Self.Nanoseconds()) / float64(a.Count)
}

// write stores the layer report and the kept spans as one JSON file.
func (s *spans) write(path string) error {
	b, err := json.Marshal(struct {
		Layers map[string]*layerAgg `json:"layers"`
		Spans  []spanRecord         `json:"spans"`
	}{s.aggs, s.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
