package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Its name is
// "<layer>.<operation>", the layer being the repository module called.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a run's root
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end.
// begin and end may be called from several goroutines (store calls made by
// farm workers).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRun starts a new run id; spans begun afterwards carry it.
func (t *tracer) newRun() {
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) setNote(id int, note string) {
	t.mu.Lock()
	t.spans[id].Note = note
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// subtree returns root and every span below it.
func subtree(spans []span, root int) []span {
	in := map[int]bool{root: true}
	out := []span{spans[root]}
	// Spans are appended in begin order and a child begins after its
	// parent, so one forward pass finds every descendant.
	for _, s := range spans[root+1:] {
		if in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTimes attributes every instant of the root's interval to the deepest
// spans open at that instant, split evenly when several are open at once
// (concurrent store calls from farm workers). A span's self time is the sum
// of its shares. For strictly nested spans that is its duration minus the
// time its children cover, and in every case the self times of all spans
// under the root, the root included, add up to the root's duration. The
// root's own self time is the time no other span covers. spans[0] is the
// root (see subtree).
func selfTimes(spans []span) map[int]time.Duration {
	root := spans[0]
	clip := func(v int64) int64 { return min(max(v, root.Start), root.End) }
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, clip(s.Start), clip(s.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	share := make(map[int]float64)
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if a == b {
			continue
		}
		var open []span
		parents := make(map[int]bool)
		for _, s := range spans {
			if s.Start <= a && s.End >= b {
				open = append(open, s)
				parents[s.Parent] = true
			}
		}
		var deepest []int
		for _, s := range open {
			if !parents[s.ID] {
				deepest = append(deepest, s.ID)
			}
		}
		for _, id := range deepest {
			share[id] += float64(b-a) / float64(len(deepest))
		}
	}
	out := make(map[int]time.Duration, len(share))
	for id, ns := range share {
		out[id] = time.Duration(ns)
	}
	return out
}

// layerSelf sums self times by layer, the span-name prefix before the first
// dot. The root's share is reported under "uncovered".
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		layer := "uncovered"
		if s.ID != spans[0].ID {
			layer, _, _ = strings.Cut(s.Name, ".")
		}
		out[layer] += self[s.ID]
	}
	return out
}
