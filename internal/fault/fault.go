// Package fault is a seeded, deterministic fault-injection framework for
// the checkpoint pipeline. A Plan describes *what* to break (rules bound to
// named injection points); an Injector evaluates the rules at run time.
//
// Injection points are wired into three layers:
//
//   - internal/kernel: system-call error returns, short reads/writes,
//     mmap/brk exhaustion (Kernel.Fault);
//   - internal/pinball: truncation and bit-flips applied to checkpoint
//     files as they are read (pinball.ReadOptions.Fault);
//   - internal/vm: forced page faults and ungraceful exits at a chosen
//     retired-instruction count (Machine.FaultInj).
//
// Every consumer treats a nil *Injector as "injection off", so the zero
// configuration adds a single nil check and nothing else. All randomness
// comes from Plan.Seed, so a plan replays identically run to run: the same
// calls trigger the same faults in the same order.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// Point names one injection point.
type Point string

// Injection points.
const (
	// SyscallError makes a matching system call return Rule.Errno without
	// executing.
	SyscallError Point = "syscall-error"
	// ShortRead truncates the byte count of a read() before it completes.
	ShortRead Point = "short-read"
	// ShortWrite truncates the byte count of a write() before it completes.
	ShortWrite Point = "short-write"
	// MmapExhaust makes an anonymous mmap() fail with ENOMEM.
	MmapExhaust Point = "mmap-exhaust"
	// BrkExhaust makes a growing brk() refuse to move the break.
	BrkExhaust Point = "brk-exhaust"
	// PinballTruncate drops the tail of a pinball file as it is read.
	PinballTruncate Point = "pinball-truncate"
	// PinballBitflip flips one bit of a pinball file as it is read.
	PinballBitflip Point = "pinball-bitflip"
	// ElfieBitflip flips one bit of an opcode byte inside a generated
	// ELFie's restore stub after conversion — the defect class the static
	// verifier (internal/elflint) exists to catch before anything runs.
	ElfieBitflip Point = "elfie-bitflip"
	// PageFault raises a synthetic page fault at Rule.AtRetired retired
	// instructions (recoverable by a vm.Hooks.OnFault handler).
	PageFault Point = "page-fault"
	// UngracefulExit kills the process at Rule.AtRetired retired
	// instructions — the divergent-ELFie death the paper's §I describes.
	UngracefulExit Point = "ungraceful-exit"
)

// Rule arms one injection point. Zero fields mean "no restriction":
// a rule with only Point set fires on every eligible trigger.
type Rule struct {
	Point Point `json:"point"`
	// Syscall restricts syscall-targeted points to one syscall number;
	// nil matches any call.
	Syscall *uint64 `json:"syscall,omitempty"`
	// Errno is the error returned by SyscallError injections (default EIO=5).
	Errno int `json:"errno,omitempty"`
	// After skips the first N eligible triggers before injecting.
	After uint64 `json:"after,omitempty"`
	// Count caps the number of injections this rule performs.
	// 0 means unlimited, except for the one-shot VM points (PageFault,
	// UngracefulExit) where 0 means 1.
	Count uint64 `json:"count,omitempty"`
	// Prob injects with this probability per eligible trigger (0 => always).
	Prob float64 `json:"prob,omitempty"`
	// AtRetired is the machine-wide retired-instruction count at which the
	// VM points trigger.
	AtRetired uint64 `json:"at_retired,omitempty"`
	// File restricts pinball points to files whose name contains this
	// substring ("" matches any file).
	File string `json:"file,omitempty"`
	// Offset selects the corruption position for pinball points; negative
	// or out-of-range picks a seeded-random position.
	Offset int64 `json:"offset,omitempty"`
}

// Plan is a reproducible fault schedule: a seed plus the rules to apply.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Event records one injected fault, in injection order.
type Event struct {
	Point  Point
	Detail string
}

// ruleState tracks one rule's trigger and injection counts.
type ruleState struct {
	Rule
	triggers uint64
	injected uint64
}

// Injector evaluates a Plan. All methods are safe on a nil receiver and
// report "no fault", so callers hold a possibly-nil *Injector and call
// through unconditionally only after a nil check on the hot paths.
//
// An Injector is safe for concurrent use: when the checkpoint farm fans
// region work out across workers, one pipeline-lifetime injector is shared
// by every machine, and its rule budgets (Count, one-shot points) stay
// exact — concurrent triggers serialize, so a Count=1 rule injects exactly
// once no matter how many workers race on it. Which worker's trigger wins
// is scheduling-dependent, but the *number* of injections, and therefore
// the pipeline's recovered/dropped accounting, matches the serial run.
type Injector struct {
	mu     sync.Mutex
	rules  []*ruleState
	rng    *rand.Rand
	events []Event
}

// New builds an injector for a plan. A nil plan yields a nil injector
// (injection off).
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{rng: rand.New(rand.NewSource(p.Seed))}
	for _, r := range p.Rules {
		rs := &ruleState{Rule: r}
		if rs.Errno == 0 {
			rs.Errno = 5 // EIO
		}
		in.rules = append(in.rules, rs)
	}
	return in
}

// fire reports whether an eligible trigger of rs should inject now,
// advancing its deterministic counters.
func (in *Injector) fire(rs *ruleState, oneShot bool) bool {
	rs.triggers++
	if rs.triggers <= rs.After {
		return false
	}
	limit := rs.Count
	if limit == 0 && oneShot {
		limit = 1
	}
	if limit > 0 && rs.injected >= limit {
		return false
	}
	if rs.Prob > 0 && rs.Prob < 1 && in.rng.Float64() >= rs.Prob {
		return false
	}
	rs.injected++
	return true
}

func (in *Injector) record(p Point, format string, args ...any) {
	in.events = append(in.events, Event{Point: p, Detail: fmt.Sprintf(format, args...)})
}

// SyscallErrno reports whether a SyscallError rule fires for syscall num,
// returning the errno to inject.
func (in *Injector) SyscallErrno(num uint64) (int, bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if rs.Point != SyscallError {
			continue
		}
		if rs.Syscall != nil && *rs.Syscall != num {
			continue
		}
		if in.fire(rs, false) {
			in.record(SyscallError, "syscall %d -> errno %d", num, rs.Errno)
			return rs.Errno, true
		}
	}
	return 0, false
}

// ShortIO shortens an I/O transfer of n bytes at point p (ShortRead or
// ShortWrite), returning the reduced count. Transfers of 0 or 1 bytes
// cannot be shortened.
func (in *Injector) ShortIO(p Point, num uint64, n uint64) (uint64, bool) {
	if in == nil || n <= 1 {
		return n, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if rs.Point != p {
			continue
		}
		if rs.Syscall != nil && *rs.Syscall != num {
			continue
		}
		if in.fire(rs, false) {
			short := uint64(in.rng.Int63n(int64(n)))
			in.record(p, "syscall %d: %d -> %d bytes", num, n, short)
			return short, true
		}
	}
	return n, false
}

// Trigger reports whether a parameterless kernel point (MmapExhaust,
// BrkExhaust) fires.
func (in *Injector) Trigger(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if rs.Point != p {
			continue
		}
		if in.fire(rs, false) {
			in.record(p, "injected")
			return true
		}
	}
	return false
}

// CorruptFile applies any matching pinball corruption rules to the contents
// of a checkpoint file. It never mutates data in place: if a rule fires the
// returned slice is a corrupted copy.
func (in *Injector) CorruptFile(name string, data []byte) []byte {
	if in == nil {
		return data
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if rs.Point != PinballTruncate && rs.Point != PinballBitflip {
			continue
		}
		if rs.File != "" && !strings.Contains(name, rs.File) {
			continue
		}
		if len(data) == 0 || !in.fire(rs, false) {
			continue
		}
		off := rs.Offset
		if off < 0 || off >= int64(len(data)) {
			off = in.rng.Int63n(int64(len(data)))
		}
		switch rs.Point {
		case PinballTruncate:
			data = append([]byte(nil), data[:off]...)
			in.record(PinballTruncate, "%s truncated to %d bytes", name, off)
		case PinballBitflip:
			data = append([]byte(nil), data...)
			bit := byte(1) << uint(in.rng.Intn(8))
			data[off] ^= bit
			in.record(PinballBitflip, "%s bit %#02x flipped at offset %d", name, bit, off)
		}
	}
	return data
}

// StubFlip is one ElfieBitflip injection, claimed before the restore stub
// it damages exists (see ClaimRestoreStub).
type StubFlip struct {
	in   *Injector
	name string
	off  int64
	bit  byte
}

// ClaimRestoreStub evaluates the ElfieBitflip rules for the size-byte
// restore stub that name's ELFie will carry, and returns the flip that
// will land on it, or nil when no rule fires. The flip hits the opcode
// byte of an instruction-aligned word, so the damage is always semantic (a
// different or undecodable instruction), never a silent immediate change.
//
// Claiming is split from applying so a parallel pipeline can claim in a
// fixed order (region order) while stubs are built in completion order: a
// one-shot rule then hits the same region at any worker count. The
// injection is recorded only when Apply runs; a claim whose stub is never
// built (its region failed at an earlier stage) lapses.
func (in *Injector) ClaimRestoreStub(name string, size int) *StubFlip {
	if in == nil || size < 8 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if rs.Point != ElfieBitflip {
			continue
		}
		if rs.File != "" && !strings.Contains(name, rs.File) {
			continue
		}
		if !in.fire(rs, false) {
			continue
		}
		words := int64(size / 8)
		off := rs.Offset * 8
		if rs.Offset < 0 || rs.Offset >= words {
			off = in.rng.Int63n(words) * 8
		}
		return &StubFlip{in: in, name: name, off: off, bit: byte(1) << uint(in.rng.Intn(8))}
	}
	return nil
}

// Apply flips the claimed bit of code in place and records the injection.
// A nil flip is a no-op.
func (f *StubFlip) Apply(code []byte) {
	if f == nil || f.off >= int64(len(code)) {
		return
	}
	code[f.off] ^= f.bit
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	f.in.record(ElfieBitflip, "%s opcode bit %#02x flipped at stub offset %d", f.name, f.bit, f.off)
}

// VMFault reports whether a VM point (PageFault or UngracefulExit) triggers
// at the given machine-wide retired-instruction count. VM rules are
// one-shot unless Count raises the limit.
func (in *Injector) VMFault(retired uint64) (Point, bool) {
	if in == nil {
		return "", false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if rs.Point != PageFault && rs.Point != UngracefulExit {
			continue
		}
		if retired < rs.AtRetired {
			continue
		}
		if in.fire(rs, true) {
			in.record(rs.Point, "at retired=%d", retired)
			return rs.Point, true
		}
	}
	return "", false
}

// Events returns the faults injected so far, in order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// InjectedCount returns the number of injections at the given points
// (all points when none are named).
func (in *Injector) InjectedCount(points ...Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(points) == 0 {
		return len(in.events)
	}
	n := 0
	for _, e := range in.events {
		for _, p := range points {
			if e.Point == p {
				n++
				break
			}
		}
	}
	return n
}
