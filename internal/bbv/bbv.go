// Package bbv implements basic-block-vector profiling, the input to the
// SimPoint phase-detection methodology. It is written as a pintool over the
// VM's instrumentation hooks, like the profilers the PinPoints kit uses.
package bbv

import (
	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/pin"
	"elfie/internal/vm"
)

// Vector is one slice's basic-block vector: execution weight (instructions
// retired) per basic-block start address.
type Vector map[uint64]uint32

// Profile is the per-slice BBV sequence of one program run.
type Profile struct {
	SliceSize uint64
	Slices    []Vector
	// TotalInstructions profiled (thread 0).
	TotalInstructions uint64
}

// Collector is the profiling pintool. Slices are counted over thread 0's
// instruction stream (the SimPoint convention for rate runs).
type Collector struct {
	SliceSize uint64
	profile   *Profile

	cur        Vector
	curCount   uint64
	blockStart uint64 // thread 0's current block start PC
	prevBranch bool   // the last instruction ended a block
}

// NewCollector creates a collector with the given slice size.
func NewCollector(sliceSize uint64) *Collector {
	return &Collector{
		SliceSize:  sliceSize,
		profile:    &Profile{SliceSize: sliceSize},
		cur:        make(Vector),
		prevBranch: true, // the first instruction opens a block
	}
}

// Attach installs the collector on a machine as a pintool.
func (c *Collector) Attach(m *vm.Machine) {
	pin.NewEngine(m).Attach(&pin.Tool{Name: "bbv", OnIns: c.observe})
}

func (c *Collector) observe(t *vm.Thread, pc uint64, ins isa.Inst) {
	if t.TID != 0 {
		return
	}
	if c.prevBranch {
		c.blockStart = pc
	}
	c.cur[c.blockStart]++
	c.prevBranch = isa.IsBranch(ins.Op)
	c.curCount++
	c.profile.TotalInstructions++
	if c.curCount >= c.SliceSize {
		c.flush()
	}
}

func (c *Collector) flush() {
	if c.curCount == 0 {
		return
	}
	c.profile.Slices = append(c.profile.Slices, c.cur)
	c.cur = make(Vector)
	c.curCount = 0
}

// Finish closes the last (possibly partial) slice and returns the profile.
func (c *Collector) Finish() *Profile {
	c.flush()
	return c.profile
}

// Collect runs the machine to completion under profiling.
func Collect(m *vm.Machine, sliceSize uint64) (*Profile, error) {
	c := NewCollector(sliceSize)
	c.Attach(m)
	if err := harness.WrapRun(harness.ModeMeasure, m.Run()); err != nil {
		return nil, err
	}
	return c.Finish(), nil
}

// CollectSession runs a harness-built session to completion under profiling.
func CollectSession(s *harness.Session, sliceSize uint64) (*Profile, error) {
	c := NewCollector(sliceSize)
	c.Attach(s.Machine)
	if err := s.Run(); err != nil {
		return nil, err
	}
	return c.Finish(), nil
}
