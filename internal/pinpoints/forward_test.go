package pinpoints

import (
	"slices"
	"sync"
	"testing"

	"elfie/internal/pinball"
	"elfie/internal/simpoint"
	"elfie/internal/workloads"
)

// TestForwardPassConcurrentJobs: log jobs on several workers share one
// pass. Each gets the latest snapshot at or before its start (none before
// the first stop), each stop is snapshotted once however many regions
// start there, and the pass runs no further than the furthest job asked.
func TestForwardPassConcurrentJobs(t *testing.T) {
	r := smallRecipe()
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	b := &Benchmark{Recipe: r, Exe: exe, cfg: smallConfig()}
	b.cfg.defaults()
	// Slice 3's window is clamped to instruction 0; slice 9 is a primary
	// twice.
	var regions []simpoint.Region
	for _, slice := range []int{3, 9, 9, 14, 20} {
		regions = append(regions, simpoint.Region{SliceIndex: slice})
	}
	b.pass = newForwardPass(b, regions)
	stops := []uint64{400_000, 900_000, 1_500_000}
	if !slices.Equal(b.pass.stops, stops) {
		t.Fatalf("planned stops %v, want %v", b.pass.stops, stops)
	}
	asks := []uint64{0, 399_999, 450_000, 900_000, 1_000_000, 1_000_000, 1_200_000}
	want := []uint64{0, 0, 400_000, 900_000, 900_000, 900_000, 900_000}

	got := make([]*pinball.Pinball, len(asks))
	var wg sync.WaitGroup
	for i, start := range asks {
		wg.Add(1)
		go func(i int, start uint64) {
			defer wg.Done()
			got[i] = b.pass.snapshot(start)
		}(i, start)
	}
	wg.Wait()
	for i, snap := range got {
		at := uint64(0)
		if snap != nil {
			at = snap.Meta.RegionStartIcount
		}
		if at != want[i] {
			t.Errorf("job at %d resumed from %d, want %d", asks[i], at, want[i])
		}
	}
	if len(b.pass.snaps) != 2 || len(b.pass.stops) != 1 || b.pass.sess == nil {
		t.Errorf("pass state: %d snapshots, %d stops left, running=%v; want 2, 1, true",
			len(b.pass.snaps), len(b.pass.stops), b.pass.sess != nil)
	}
}
