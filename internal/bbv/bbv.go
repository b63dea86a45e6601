// Package bbv implements basic-block-vector profiling, the input to the
// SimPoint phase-detection methodology. It is written as a pintool over the
// VM's block-granular OnBlock hook, like the basic-block profilers the
// PinPoints kit uses: the program runs on the decoded-block fast path, and
// the collector sees each retired straight-line run once, not every
// instruction.
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
// instruction stream (the SimPoint convention for rate runs). A basic block
// starts at the first instruction and after every isa.IsBranch op; the
// VM's decoded blocks do not define it, since they also end at page edges,
// at a length cap and before ops the fast path cannot batch.
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
	pin.NewEngine(m).Attach(&pin.Tool{Name: "bbv", OnBlock: c.block})
}

// block profiles reps back-to-back passes over the run ins. From the second
// pass on, every pass splits into the same basic blocks, so whole passes
// that fit in the open slice are counted in one step.
func (c *Collector) block(t *vm.Thread, ins []isa.DecInst, reps int) {
	if t.TID != 0 || len(ins) == 0 || reps < 1 {
		return
	}
	c.pass(ins, 1)
	for left := uint64(reps - 1); left > 0; {
		k := max(1, min(left, (max(c.SliceSize, 1)-c.curCount)/uint64(len(ins))))
		c.pass(ins, k)
		left -= k
	}
}

// pass counts k identical passes over ins, one weight update per basic
// block. With k > 1 the passes must fit in the open slice.
func (c *Collector) pass(ins []isa.DecInst, k uint64) {
	from := 0
	for j := range ins {
		if c.prevBranch {
			c.add(uint64(j-from) * k)
			from = j
			c.blockStart = ins[j].PC()
		}
		c.prevBranch = isa.IsBranch(ins[j].Op)
	}
	c.add(uint64(len(ins)-from) * k)
}

// add credits n instructions to the current block, closing slices as they
// fill.
func (c *Collector) add(n uint64) {
	for n > 0 {
		k := min(n, max(c.SliceSize, 1)-c.curCount)
		c.cur[c.blockStart] += uint32(k)
		c.curCount += k
		c.profile.TotalInstructions += k
		n -= k
		if c.curCount >= c.SliceSize {
			c.flush()
		}
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
