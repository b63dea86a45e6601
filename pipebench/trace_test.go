package main

import (
	"sync"
	"testing"
	"time"
)

// spanAt builds a span with start and end in nanoseconds.
func spanAt(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func checkSelf(t *testing.T, spans []span, want map[int]time.Duration) {
	t.Helper()
	got := selfTimes(spans)
	var sum time.Duration
	for id, d := range got {
		sum += d
		if d != want[id] {
			t.Errorf("self time of span %d (%s) = %v, want %v", id, spans[id].Name, d, want[id])
		}
	}
	if root := spans[0].dur(); sum != root {
		t.Errorf("self times add up to %v, root lasts %v", sum, root)
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		spanAt(0, -1, "run", 0, 100),
		spanAt(1, 0, "pinplay.log", 10, 50),
		spanAt(2, 1, "harness.new", 20, 30),
		spanAt(3, 0, "core.convert", 60, 70),
	}
	checkSelf(t, spans, map[int]time.Duration{0: 50, 1: 30, 2: 10, 3: 10})
}

func TestSelfTimeOverlappingSiblings(t *testing.T) {
	// Two concurrent store calls share the 20ns they overlap.
	spans := []span{
		spanAt(0, -1, "run", 0, 100),
		spanAt(1, 0, "store.put", 10, 50),
		spanAt(2, 0, "store.put", 30, 70),
	}
	checkSelf(t, spans, map[int]time.Duration{0: 40, 1: 30, 2: 30})
}

func TestSelfTimeOverlapUnderParent(t *testing.T) {
	// Prepare's own time is what no store call covers.
	spans := []span{
		spanAt(0, -1, "run", 0, 100),
		spanAt(1, 0, "pinpoints.prepare", 0, 80),
		spanAt(2, 1, "store.get", 10, 40),
		spanAt(3, 1, "store.put", 20, 40),
		spanAt(4, 1, "store.put", 60, 80),
	}
	checkSelf(t, spans, map[int]time.Duration{0: 20, 1: 30, 2: 20, 3: 10, 4: 20})
	got := layerSelf(spans)
	want := map[string]time.Duration{"uncovered": 20, "pinpoints": 30, "store": 50}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("layer %s self time = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestSubtreeKeepsOneRun(t *testing.T) {
	tr := newTracer()
	tr.newRun()
	a := tr.begin("run", -1)
	tr.end(tr.begin("store.get", a))
	tr.end(a)
	tr.newRun()
	b := tr.begin("run", -1)
	child := tr.begin("pinpoints.prepare", b)
	tr.end(tr.begin("store.put", child))
	tr.end(child)
	tr.end(b)

	spans := subtree(tr.snapshot(), b)
	if len(spans) != 3 || spans[0].ID != b {
		t.Fatalf("subtree of run 2 = %+v", spans)
	}
	for _, s := range spans {
		if s.Run != 2 {
			t.Errorf("span %s from run %d in run 2's subtree", s.Name, s.Run)
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run", -1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.begin("store.put", root)
				tr.setNote(id, "region")
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	spans := subtree(tr.snapshot(), root)
	if len(spans) != 401 {
		t.Fatalf("%d spans, want 401", len(spans))
	}
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		sum += d
	}
	if diff := (sum - spans[0].dur()).Abs(); diff > time.Duration(len(spans)) {
		t.Fatalf("self times add up to %v, root lasts %v", sum, spans[0].dur())
	}
}
