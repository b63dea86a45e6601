package pinpoints

import (
	"errors"
	"fmt"
	"os"

	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/pinball"
)

// FailureKind classifies a per-region pipeline failure.
type FailureKind string

// Failure kinds.
const (
	// FailCorruptPinball: the region's pinball failed integrity checks
	// (CRC mismatch, truncation, version skew). Recovery: re-log once.
	FailCorruptPinball FailureKind = "corrupt-pinball"
	// FailLogging: the PinPlay logger could not capture the region.
	FailLogging FailureKind = "logging"
	// FailConversion: sysstate extraction or pinball-to-ELFie conversion
	// failed. Recovery: alternate representative.
	FailConversion FailureKind = "conversion"
	// FailUngracefulExit: the region's ELFie died or never reached its
	// graceful exit. Recovery: alternate representative.
	FailUngracefulExit FailureKind = "ungraceful-exit"
	// FailLint: the converted ELFie failed static verification
	// (internal/elflint) — broken restore recipe, unsound memory map, or
	// pinball↔ELFie disagreement. Recovery: alternate representative, the
	// same policy as a corrupt pinball.
	FailLint FailureKind = "lint"
	// FailInterrupted: a watchdog (wall-clock deadline or instruction
	// budget) interrupted the region's checkpointed replay and its retry
	// budget ran out. The last checkpoint stays in the store under the
	// region's checkpoint key, so a re-run continues the replay instead of
	// restarting it.
	FailInterrupted FailureKind = "interrupted"
	// FailInternal: anything else.
	FailInternal FailureKind = "internal"
)

// ErrAllRegionsFailed reports a pipeline where no selected region survived
// capture — the degraded result would have zero coverage, so the pipeline
// refuses to produce one.
var ErrAllRegionsFailed = errors.New("pinpoints: all regions failed")

// failError tags an error with its failure kind, so recovery policy can
// classify without string matching.
type failError struct {
	kind FailureKind
	err  error
}

func (e *failError) Error() string { return fmt.Sprintf("%s: %v", e.kind, e.err) }
func (e *failError) Unwrap() error { return e.err }

func failf(kind FailureKind, format string, args ...any) error {
	return &failError{kind: kind, err: fmt.Errorf(format, args...)}
}

// FailureOf classifies an error from region capture or measurement.
func FailureOf(err error) FailureKind {
	var fe *failError
	if errors.As(err, &fe) {
		return fe.kind
	}
	if errors.Is(err, pinball.ErrCorrupt) || errors.Is(err, pinball.ErrTruncated) ||
		errors.Is(err, pinball.ErrVersionMismatch) {
		return FailCorruptPinball
	}
	if errors.Is(err, harness.ErrInterrupted) {
		return FailInterrupted
	}
	return FailInternal
}

// RegionFailure records one region-level failure and the pipeline's response.
type RegionFailure struct {
	Cluster int
	Slice   int
	Kind    FailureKind
	Err     error
	// Recovered reports whether a substitute (re-log or alternate
	// representative) took the region's place.
	Recovered bool
	// Action describes the response: "re-logged", "alternate N (slice M)",
	// or "dropped".
	Action string
}

// DegradationSummary aggregates graceful-degradation outcomes across a
// pipeline: how many failed regions were recovered, how many were dropped,
// and how much selection weight the drops cost.
type DegradationSummary struct {
	Recovered int
	Dropped   int
	// CoverageLost is the summed selection weight of dropped regions.
	CoverageLost float64
	Events       []RegionFailure
}

// record appends one failure event. lostWeight is the region's selection
// weight, charged only when the region was dropped.
func (d *DegradationSummary) record(ev RegionFailure, lostWeight float64) {
	if ev.Recovered {
		d.Recovered++
	} else {
		d.Dropped++
		d.CoverageLost += lostWeight
	}
	d.Events = append(d.Events, ev)
}

// clone returns a copy that can grow independently.
func (d DegradationSummary) clone() DegradationSummary {
	c := d
	c.Events = append([]RegionFailure(nil), d.Events...)
	return c
}

// String renders a one-line summary.
func (d DegradationSummary) String() string {
	return fmt.Sprintf("degradation: %d recovered, %d dropped, %.0f%% coverage lost",
		d.Recovered, d.Dropped, 100*d.CoverageLost)
}

// roundTrip persists a freshly logged pinball and reads it back under the
// benchmark's fault injector. The read verifies the integrity manifest, so
// storage-layer corruption surfaces here as a typed pinball error instead of
// propagating silently into conversion.
func roundTrip(pb *pinball.Pinball, inj *fault.Injector) (*pinball.Pinball, error) {
	dir, err := os.MkdirTemp("", "elfie-pinball-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := pb.Save(dir); err != nil {
		return nil, err
	}
	return pinball.Read(dir, pb.Name, pinball.ReadOptions{Fault: inj})
}
