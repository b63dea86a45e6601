package pinpoints

import (
	"fmt"
	"slices"
	"sync"

	"elfie/internal/harness"
	"elfie/internal/pinball"
	"elfie/internal/simpoint"
)

// forwardPass is the log stage's one run over the benchmark's program. It
// stops at each primary region's start and keeps an in-memory
// Session.CheckpointState snapshot there, so a log job resumes its region
// from the snapshot instead of fast-forwarding a fresh session from
// instruction 0 — PinPlay's many-regions-from-one-run logging, with rr's
// cheap snapshots of a running process. The pass is lazy: it starts when
// the first log job misses the cache and runs only as far as the jobs ask.
// Snapshots stay in memory and never reach the store.
type forwardPass struct {
	b  *Benchmark
	mu sync.Mutex
	// stops are the region starts the pass has yet to reach, ascending.
	stops []uint64
	// sess is the running pass: nil before the first stop and after the
	// last.
	sess *harness.Session
	// snaps are the snapshots taken so far, ascending by position.
	snaps []*pinball.Pinball
}

// newForwardPass plans a pass that stops at the start of each selected
// region's primary slice. A region starting at instruction 0 needs no
// stop: a fresh session is already there.
func newForwardPass(b *Benchmark, regions []simpoint.Region) *forwardPass {
	p := &forwardPass{b: b}
	for _, r := range regions {
		if start, _ := b.regionWindow(r.SliceIndex); start > 0 {
			p.stops = append(p.stops, start)
		}
	}
	slices.Sort(p.stops)
	p.stops = slices.Compact(p.stops)
	return p
}

// logSession returns a session for capturing a region that starts at
// start: resumed from the latest snapshot at or before start, or fresh
// when there is none. pinplay.LogSession fast-forwards it the rest of the
// way.
func (b *Benchmark) logSession(start uint64) (*harness.Session, error) {
	if snap := b.pass.snapshot(start); snap != nil {
		return harness.New(harness.Config{Mode: harness.ModeLog, Pinball: snap, Seed: b.cfg.Seed})
	}
	return b.session(harness.ModeLog, b.cfg.Seed)
}

// snapshot advances the pass through every stop at or before start and
// returns the latest snapshot at or before start (nil if none, or if p is
// nil). The lock is released between stops, so a job whose snapshot is
// already taken waits for at most one leg of the pass.
func (p *forwardPass) snapshot(start uint64) *pinball.Pinball {
	if p == nil {
		return nil
	}
	for {
		p.mu.Lock()
		if len(p.stops) == 0 || p.stops[0] > start {
			var snap *pinball.Pinball
			for _, s := range p.snaps {
				if s.Meta.RegionStartIcount <= start {
					snap = s
				}
			}
			p.mu.Unlock()
			return snap
		}
		p.advance()
		p.mu.Unlock()
	}
}

// advance runs the pass to its next stop and snapshots it there. A pass
// that cannot reach the stop — the program ends or fails first — ends:
// the jobs behind it log from fresh sessions, which report the failure.
func (p *forwardPass) advance() {
	stop := p.stops[0]
	p.stops = p.stops[1:]
	if p.sess == nil {
		s, err := p.b.session(harness.ModeLog, p.b.cfg.Seed)
		if err != nil {
			p.stops = nil
			return
		}
		p.sess = s
	}
	m := p.sess.Machine
	m.MaxInstructions = stop
	if err := p.sess.Run(); err != nil || m.GlobalRetired != stop || m.Halted || m.AliveCount() == 0 {
		p.stops = nil
	} else if snap, err := p.sess.CheckpointState(fmt.Sprintf("%s.at%d", p.b.Recipe.Name, stop)); err != nil {
		p.stops = nil
	} else {
		p.snaps = append(p.snaps, snap)
	}
	if len(p.stops) == 0 {
		p.sess = nil
	}
}
