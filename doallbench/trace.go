package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one cell
// or job share Trace; Parent is the enclosing span's ID (0 for a root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// unattributed names the synthetic child that holds the part of a root
// span's wall time no other child covers, so per-layer self times always
// add up to the root's wall time.
const unattributed = "unattributed"

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (tr *tracer) add(trace, parent int, name string, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(),
	})
	return id
}

// root records a root span with its children, which must not overlap,
// and the unattributed remainder. It returns the root's ID.
func (tr *tracer) root(trace int, name string, start, end time.Time, children []child) int {
	id := tr.add(trace, 0, name, start, end)
	covered := time.Duration(0)
	for _, c := range children {
		tr.add(trace, id, c.name, c.start, c.end)
		covered += c.end.Sub(c.start)
	}
	rest := end.Sub(start) - covered
	tr.add(trace, id, unattributed, start, start.Add(rest))
	return id
}

type child struct {
	name       string
	start, end time.Time
}

// selfTimes returns, per span name, the summed self time (duration minus
// the durations of direct children) and the number of spans so named.
func (tr *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	self := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range tr.spans {
		self[s.Name] += s.dur()
		count[s.Name]++
		if s.Parent > 0 {
			self[tr.spans[s.Parent-1].Name] -= s.dur()
		}
	}
	return self, count
}

// unattributedUnder sums the unattributed time of every root span named
// root and counts those roots.
func (tr *tracer) unattributedUnder(root string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range tr.spans {
		switch {
		case s.Parent == 0 && s.Name == root:
			n++
		case s.Name == unattributed && tr.spans[s.Parent-1].Name == root:
			sum += s.dur()
		}
	}
	return sum, n
}

// write stores the spans, their per-layer self times and the
// environment stamp as one JSON document under dir.
func (tr *tracer) write(dir string, env envStamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self, count := tr.selfTimes()
	selfS := map[string]float64{}
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	doc := struct {
		Env    envStamp           `json:"env"`
		SelfS  map[string]float64 `json:"self_s"`
		Counts map[string]int     `json:"counts"`
		Spans  []span             `json:"spans"`
	}{env, selfS, count, tr.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", env.Workload, env.Seed))
	return path, os.WriteFile(path, b, 0o644)
}
