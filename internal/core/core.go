// Package core implements pinball2elf, the paper's primary contribution:
// converting a user-level checkpoint (pinball) into a stand-alone,
// statically-linked ELF executable — an ELFie.
//
// An ELFie starts with the exact program state captured at the beginning of
// the region of interest and then executes natively, unconstrained. The
// converter:
//
//   - maps every captured memory extent to an ELF section pinned at its
//     original virtual address (Fig. 3); an all-zero extent that is
//     neither executable nor live stack becomes SHT_NOBITS, so the file
//     holds no bytes for it and the loader maps it zero-filled;
//   - marks checkpointed stack pages non-loadable and generates startup code
//     that remaps them over the loader-created stack, solving the
//     stack-collision problem (Fig. 4/5);
//   - packs per-thread register state into a context section and generates a
//     startup routine that clone()s the worker threads, restores each
//     context (XRSTOR, segment bases, flags and GPRs popped off the context
//     block), and jumps to the captured PC through an inline literal
//     (Fig. 6);
//   - optionally arms per-thread hardware performance counters so each
//     thread exits gracefully after its recorded instruction count;
//   - optionally inserts ROI marker instructions and calls to user-provided
//     elfie_on_start / elfie_on_thread_start / elfie_on_exit callbacks;
//   - optionally embeds SYSSTATE references that re-create file descriptors
//     opened before the captured region;
//   - emits a linker script recording the full memory layout so users can
//     re-link the ELFie object with their own code (§II.B.5).
package core

import (
	"fmt"

	"elfie/internal/asm"
	"elfie/internal/elfobj"
	"elfie/internal/pinball"
)

// PreopenFile describes one file descriptor the ELFie must re-create at
// startup before application code runs (the SYSSTATE "FD_n" mechanism):
// open Path, dup2 the result onto TargetFD, and seek to Offset.
type PreopenFile struct {
	TargetFD int
	Path     string
	Offset   int64
}

// SysStateRef is the startup-visible summary of a sysstate directory.
type SysStateRef struct {
	Preopen  []PreopenFile
	BrkFirst uint64 // first brk() result in the region (BRK.log)
	BrkLast  uint64 // last brk() result in the region
}

// MarkerType selects the ROI marker instruction flavor (--roi-start).
type MarkerType int

// Marker flavors, matching the paper's sniper/ssc/simics options.
const (
	MarkerNone MarkerType = iota
	MarkerSniper
	MarkerSSC
	MarkerSimics
)

// Options configures the conversion.
type Options struct {
	// GracefulExit arms a per-thread retired-instruction counter via
	// perf_event_open so each thread exits after its recorded region
	// length.
	GracefulExit bool
	// ExtraSlack adds instructions to each graceful-exit budget.
	ExtraSlack uint64
	// Marker and MarkerTag insert a marker instruction immediately before
	// the main thread jumps to application code.
	Marker    MarkerType
	MarkerTag uint32
	// OnStart/OnThreadStart/OnExit emit calls to the corresponding
	// user-provided callbacks (elfie_on_start, elfie_on_thread_start,
	// elfie_on_exit). The callbacks must be defined by UserSource and must
	// preserve every register except r0. OnExit creates a monitor thread
	// and requires GracefulExit.
	OnStart       bool
	OnThreadStart bool
	OnExit        bool
	// UserSource is extra PVM assembly linked into the ELFie (callback
	// definitions, measurement code, ...).
	UserSource string
	// SysState embeds file/heap re-creation in the startup code.
	SysState *SysStateRef
	// AllowNonFat permits converting a non-fat pinball. The resulting
	// ELFie misses every page the region did not touch and is likely to
	// die ungracefully on divergence; pinball2elf refuses unless asked.
	AllowNonFat bool
}

// Result is the conversion output.
type Result struct {
	// Exe is the statically-linked ELFie executable.
	Exe *elfobj.File
	// Object is the ELFie object file (captured memory + contexts, no
	// startup code) for users who link their own startup.
	Object *elfobj.File
	// Script is the generated linker script preserving the memory layout.
	Script *asm.Script
	// StartupSource is the generated startup assembly (for debugging).
	StartupSource string
	// ContextsAsm is the initial thread contexts as an assembly listing.
	ContextsAsm string
	// PerfPeriods are the per-thread graceful-exit budgets (instructions),
	// including startup-tail slack.
	PerfPeriods []uint64
	// RestoreMap is the machine-readable restore recipe the static
	// verifier cross-checks against the generated startup code.
	RestoreMap *RestoreMap
}

// Convert turns a pinball into an ELFie.
func Convert(pb *pinball.Pinball, opts Options) (*Result, error) {
	if len(pb.Regs) == 0 {
		return nil, fmt.Errorf("pinball2elf: pinball has no threads")
	}
	if !pb.Meta.Fat && !opts.AllowNonFat {
		return nil, fmt.Errorf("pinball2elf: pinball %q is not fat; re-log with -log:fat or set AllowNonFat", pb.Name)
	}
	if opts.OnExit && !opts.GracefulExit {
		return nil, fmt.Errorf("pinball2elf: OnExit requires GracefulExit")
	}
	if (opts.OnStart || opts.OnThreadStart || opts.OnExit) && opts.UserSource == "" {
		return nil, fmt.Errorf("pinball2elf: callbacks enabled but no UserSource provided")
	}

	lay, err := planLayout(pb)
	if err != nil {
		return nil, err
	}
	pbObj := buildPinballObject(pb, lay)
	gen := newStartupGen(pb, lay, opts)
	startupSrc := gen.generate()

	objs := []*elfobj.File{}
	startupObj, err := asm.Assemble(startupSrc, pb.Name+".startup.s")
	if err != nil {
		return nil, fmt.Errorf("pinball2elf: startup assembly: %v\n%s", err, startupSrc)
	}
	objs = append(objs, startupObj, pbObj)
	if opts.UserSource != "" {
		userObj, err := asm.Assemble(opts.UserSource, pb.Name+".user.s")
		if err != nil {
			return nil, fmt.Errorf("pinball2elf: user source: %v", err)
		}
		objs = append(objs, userObj)
	}

	script := lay.script()
	exe, err := asm.Link(objs, asm.LinkOptions{Entry: "_start", Script: script, Base: lay.userBase})
	if err != nil {
		return nil, fmt.Errorf("pinball2elf: link: %v", err)
	}
	exe.Symbols = append(exe.Symbols, debugSymbols(pb, lay)...)

	return &Result{
		Exe:           exe,
		Object:        pbObj,
		Script:        script,
		StartupSource: startupSrc,
		ContextsAsm:   contextsAsm(pb),
		PerfPeriods:   gen.perfPeriods,
		RestoreMap:    buildRestoreMap(pb, lay, gen),
	}, nil
}
