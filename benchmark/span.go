package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer; they stay in
// memory and are written out when the run ends. Times are nanoseconds since
// the recorder was made. Counts carries what the seams counted inside the
// interval (calls, busy time), where recording one span per call would
// cost more than the call.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a root
	Op     int              `json:"op"`     // spans of one op share it
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder collects spans. Only the benchmark's own goroutine records:
// what happens on the program's goroutines reaches it as seam counters.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent, op int) int {
	now := int64(time.Since(r.t0))
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// finish closes a span and returns how long it was open.
func (r *recorder) finish(id int, counts map[string]int64) time.Duration {
	now := int64(time.Since(r.t0))
	r.spans[id].End = now
	r.spans[id].Counts = counts
	return time.Duration(now - r.spans[id].Start)
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent, op int, start, end time.Time, counts map[string]int64) {
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Counts: counts,
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (concurrent requests under one service span) and may stick out of the
// parent; covered time is the union of the children clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), s.Start
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time over the spans of each name.
func selfByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, t := range selfTimes(spans) {
		out[spans[i].Name] += t
	}
	return out
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
