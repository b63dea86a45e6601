// Package perfle is the measurement side of the ELFie tool-chain — the
// analog of libperfle plus a perf-stat-like harness.
//
// In the paper, ELFie-based validation measures regions with hardware
// performance counters on real machines. In this reproduction, "real
// hardware" is the reference hardware model (uarch.HardwareCore): a cheap
// per-thread timing model attached to a native VM run. It is deliberately
// simpler than the detailed simulators, so hardware-measured CPI and
// simulated CPI differ — but correlate — exactly as in the paper's Fig. 9.
package perfle

import (
	"fmt"
	"math"
	"math/rand"

	"elfie/internal/uarch"
	"elfie/internal/vm"
)

// Options configures a measurement run.
type Options struct {
	// Cores is the number of hardware contexts (threads map TID -> core,
	// round-robin). Default 8.
	Cores int
	// StartMarker, when non-zero, discards everything before the first
	// SSCMARK or MAGIC with this tag — how measurements skip ELFie startup
	// code.
	StartMarker uint32
	// SliceSize, when non-zero, records per-slice samples of measured
	// instructions and cycles (thread 0's stream), used for region-level
	// CPI extraction.
	SliceSize uint64
	// SkipInstr opens the measurement window only after this many
	// thread-0 instructions have been measured — the PinPoints warm-up
	// prefix that is executed but excluded from region CPI.
	SkipInstr uint64
	// NoiseSeed, when non-zero, perturbs reported cycle counts by up to
	// +-1%, modeling the run-to-run variation of real hardware counters
	// (interrupts, frequency scaling, placement). The virtual machine is
	// otherwise deterministic for single-threaded programs, which real
	// hardware never is.
	NoiseSeed int64
}

// Slice is one sampled measurement window.
type Slice struct {
	StartInstr   uint64 // thread-0 measured instructions at slice start
	Instructions uint64
	Cycles       uint64
}

// CPI returns the slice's cycles per instruction.
func (s *Slice) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Report is the outcome of a measurement.
type Report struct {
	// PerThread maps TID to its timing stats.
	PerThread []*uarch.CoreStats
	// Instructions measured (after the start marker), all threads.
	Instructions uint64
	// Cycles is the maximum core cycle count — the run's critical path.
	Cycles uint64
	// Slices are thread-0 samples when SliceSize was set.
	Slices []Slice
	// MarkerSeen reports whether the start marker fired.
	MarkerSeen bool
	// WindowInstructions/WindowCycles cover the post-warm-up window
	// (thread 0) when SkipInstr was set.
	WindowInstructions uint64
	WindowCycles       uint64
}

// CPI returns overall cycles per instruction.
func (r *Report) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// WindowCPI returns cycles per instruction over the post-warm-up window.
func (r *Report) WindowCPI() float64 {
	if r.WindowInstructions == 0 {
		return 0
	}
	return float64(r.WindowCycles) / float64(r.WindowInstructions)
}

// Measurer attaches hardware-model counters to a machine.
type Measurer struct {
	opts   Options
	drv    *uarch.Driver[*uarch.IntervalCore]
	report *Report

	sliceStart uint64 // thread-0 instrs at current slice start
	sliceCyc   uint64 // core-0 cycles at current slice start
	winOpen    bool
	winInstr   uint64 // t0 instructions when the window opened
	winCycles  uint64 // core-0 cycles when the window opened
}

// Attach installs the measurer on a machine. Any hooks already installed
// (e.g. replay injection) are preserved.
func Attach(m *vm.Machine, opts Options) *Measurer {
	if opts.Cores == 0 {
		opts.Cores = 8
	}
	ms := &Measurer{opts: opts, report: &Report{}}
	ms.drv = uarch.Attach(m, uarch.NewIntervalCore, uarch.HardwareCore(),
		uarch.SmallHierarchy(opts.Cores), opts.Cores, opts.StartMarker)
	// The driver counts thread 0's measured instructions; the report
	// changes only at the counts event asks for. Without a warm-up the
	// window is open from the start, before any cycle.
	ms.winOpen = opts.SkipInstr == 0
	ms.drv.Count(0, ms.nextDue(), ms.event)
	return ms
}

// event updates the report once thread 0 has retired the instruction that
// brought the driver's count to its due count: the post-warm-up window
// opens after the SkipInstr-th instruction, so it holds the cycles of
// every instruction it counts, and a slice ends every SliceSize
// instructions. It returns the next due count.
func (ms *Measurer) event(int) uint64 {
	t0 := ms.drv.Counted()
	cyc := ms.drv.Cores[0].Stats.Cycles
	if !ms.winOpen && t0 >= ms.opts.SkipInstr {
		ms.winOpen = true
		ms.winInstr = t0
		ms.winCycles = cyc
	}
	if ms.opts.SliceSize > 0 && t0-ms.sliceStart >= ms.opts.SliceSize {
		ms.report.Slices = append(ms.report.Slices, Slice{
			StartInstr:   ms.sliceStart,
			Instructions: t0 - ms.sliceStart,
			Cycles:       cyc - ms.sliceCyc,
		})
		ms.sliceStart = t0
		ms.sliceCyc = cyc
	}
	return ms.nextDue()
}

// nextDue returns the next thread-0 count at which event has work.
func (ms *Measurer) nextDue() uint64 {
	due := uint64(math.MaxUint64)
	if !ms.winOpen {
		due = ms.opts.SkipInstr
	}
	if ms.opts.SliceSize > 0 {
		due = min(due, ms.sliceStart+ms.opts.SliceSize)
	}
	return due
}

// Finish closes the measurement and returns the report.
func (ms *Measurer) Finish() *Report {
	perCore, total := ms.drv.Finish()
	for i := range perCore {
		ms.report.PerThread = append(ms.report.PerThread, &perCore[i])
	}
	ms.report.Instructions = total.Instructions
	ms.report.Cycles = total.Cycles
	if ms.winOpen {
		ms.report.WindowInstructions = ms.drv.Counted() - ms.winInstr
		ms.report.WindowCycles = ms.drv.Cores[0].Stats.Cycles - ms.winCycles
	}
	if ms.opts.NoiseSeed != 0 {
		rng := rand.New(rand.NewSource(ms.opts.NoiseSeed))
		jitter := func(c uint64) uint64 {
			return uint64(float64(c) * (1 + (rng.Float64()*2-1)*0.01))
		}
		ms.report.Cycles = jitter(ms.report.Cycles)
		ms.report.WindowCycles = jitter(ms.report.WindowCycles)
	}
	ms.report.MarkerSeen = ms.opts.StartMarker != 0 && ms.drv.Measuring()
	return ms.report
}

// MeasureRun runs the machine under measurement and returns the report.
func MeasureRun(m *vm.Machine, opts Options) (*Report, error) {
	ms := Attach(m, opts)
	if err := m.Run(); err != nil {
		return nil, err
	}
	rep := ms.Finish()
	if opts.StartMarker != 0 && !rep.MarkerSeen {
		return rep, fmt.Errorf("perfle: start marker %#x never executed", opts.StartMarker)
	}
	return rep, nil
}
