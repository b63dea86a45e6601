package vm

import (
	"encoding/binary"

	"elfie/internal/isa"
	"elfie/internal/mem"
)

// This file implements the decoded-block fast path: a basic-block cache
// (PR 4) extended with direct block-to-block chaining and superblock/trace
// formation. When no per-instruction instrumentation is installed (elfierun
// replay, farm validation, BBV profiling), the interpreter predecodes
// straight-line instruction runs into per-page blocks and executes them in
// a tight loop that skips the fetch/decode work of Machine.step; hot block
// edges are then linked so control transfers block → block without
// re-entering the dispatch loop, and edges that stay hot are spliced into
// cross-branch, cross-page superblocks.
//
// Soundness hinges on generation validation: blocks are keyed by
// (page number, page generation), and mem.AddrSpace gives a page a fresh
// generation whenever it is (re)mapped or — for executable pages — written.
// A block whose page generation no longer matches is unreachable and gets
// rebuilt; a store *during* a batch is caught by re-checking the
// address-space clock after every retired instruction, so self-modifying
// code that rewrites its own block — or a block further down the chain —
// takes effect at the very next instruction, exactly as in the
// per-instruction path. Chain links ride on the same clock: a link is
// followed only while the target's okClock matches the current clock, so a
// single clock advance severs every link in the machine at once (see
// dblock).

const (
	// maxBlockLen caps the instructions predecoded into one basic block.
	maxBlockLen = 128
	// maxCachedPages bounds the block cache; reaching it triggers
	// second-chance eviction of cold pages (evictCold).
	maxCachedPages = 4096
	// superThreshold is the dispatch count after which a block is
	// considered hot and superblock formation is attempted on it.
	superThreshold = 32
	// maxSuperLen caps the instructions spliced into one superblock.
	maxSuperLen = 512
	// maxSuperBlocks caps the basic blocks spliced into one superblock.
	maxSuperBlocks = 64
	// segMin is the shortest batch run worth a runSeg call: below it the
	// call overhead exceeds what batching saves over the per-instruction
	// retire paths, which handle every opcode anyway.
	segMin = 4

	pageMask = mem.PageSize - 1
)

// dblock is one decoded run of instructions: a basic block (straight-line
// run ending at the first control transfer, never crossing a page) or a
// superblock (the hot path through several basic blocks spliced across
// branches, calls, and pages — see buildSuper). An empty ins slice is the
// negative cache for addresses the fast path must not batch (deopt
// opcodes, page-straddling or undecodable words): the per-instruction path
// executes those with precise fault and hook semantics.
//
// Chaining. l0/l1 cache the two most recently taken successor blocks,
// keyed by their entry PCs. A link may be followed only while the target's
// okClock equals the current address-space clock — i.e. the target was
// validated after the most recent mapping change or executable-page write
// — so the hot edge costs one compare instead of a map lookup plus
// generation check. Any clock advance severs every link in the machine at
// once; links self-heal through lookupBlock, which re-validates page
// generations and refreshes okClock. A block that leaves the cache
// (eviction, page rebuild, superblock promotion) is simply never refreshed
// again: links into it stay sound while the address space is unchanged
// (the decoded code is still exact) and die at the next clock advance, so
// dead code can never resurrect through a stale link.
type dblock struct {
	ins []isa.DecInst
	// spc[i] is the guest PC of ins[i]. The executor's universal side-exit
	// rule compares each computed successor against the next entry: a
	// mismatch (a branch that left the trace, a side exit) transfers out
	// with precise state instead of running the next spliced instruction.
	spc []uint64
	// run[i] is the length of the pure-op run starting at ins[i]: maximal
	// consecutive instructions that cannot fault, store, branch, or enter
	// the kernel (and, in a superblock, that are sequential across splice
	// boundaries). The executor retires such a run in one batch with the
	// budget, clock, and side-exit checks hoisted out of the loop — the
	// core of the threaded dispatch win. 0 marks ops that need the full
	// per-instruction path.
	run []uint16
	// pages lists every (page, generation) the code spans. nil means the
	// entry page only, which the cache key already validates; superblocks
	// record the full set and are re-validated page by page.
	pages []pageGen
	// okClock is the address-space clock at last validation (see above).
	okClock uint64
	// loop marks a block whose terminator is a direct (conditional) jump
	// back to its own entry and whose entire body is one batch run: a
	// tight self-loop. The executor runs such a block in loop mode —
	// iterations retire inside runSeg with the backedge evaluated inline,
	// paying no call, dispatch, or link cost per trip around the loop.
	loop bool
	// heat counts dispatches, saturating just past superThreshold.
	heat uint32
	// superDone marks that superblock formation was already attempted from
	// this entry (or that this block is the result of one).
	superDone bool
	// l0pc/l0 and l1pc/l1 are the chain-link cache, most recent first.
	l0pc, l1pc uint64
	l0, l1     *dblock
	// lastNext is the most recently observed successor entry PC; trace
	// formation follows it to splice the hot path.
	lastNext uint64
}

// pageGen is one page-number/generation pair a superblock depends on.
type pageGen struct {
	pn, gen uint64
}

// pageBlocks holds the decoded blocks of one executable page at one
// generation. hot is the second-chance reference bit: set on every lookup,
// cleared by an eviction sweep, and pages found cold by the next sweep are
// dropped. dec is the page's decode table for the hooked step path,
// allocated on the first step into the page.
type pageBlocks struct {
	gen    uint64
	blocks map[uint64]*dblock
	hot    bool
	dec    *decodeTable
}

// decodeSlots is the number of instruction-aligned slots in one page.
const decodeSlots = mem.PageSize / isa.InstLen

// decodeTable is one page's per-slot decoded instructions at the page's
// generation: slot i holds the instruction at page offset i*InstLen once
// have's bit i is set. It lives on the block cache's pageBlocks, so it
// shares that cache's (page, generation) key, eviction and Reset: a write
// to the page gives it a fresh generation and thereby an empty table.
// Slots fill lazily, one per first execution; words step cannot take from
// a slot (unaligned pcs, a LIMM straddling the page end, undecodable
// bytes) are never filled and always take the fetch/decode path.
type decodeTable struct {
	ins  [decodeSlots]isa.Inst
	have [decodeSlots / 64]uint64
}

// fastPathOK reports whether execution may use the block fast path. OnIns
// forces the step path, which builds each instruction's record;
// SyscallFilter/OnSyscall/OnFault are compatible with the fast path
// because syscalls the chain cannot retire inline and faults fall back to
// step semantics, and OnBlock because the chain reports its runs at every
// exit.
func (m *Machine) fastPathOK() bool {
	return !m.DisableBlockCache && m.FaultInj == nil && m.Hooks.OnIns == nil
}

// deoptOp reports opcodes the block executor refuses to batch: they yield,
// halt, or touch bulk state, and the step path already implements their
// exact semantics. The decision keys off the shared per-opcode effect
// metadata in internal/isa so the batching policy and the static
// verifier's instruction model cannot drift apart. SYSCALL (DetKernel) is
// the one exception, special-cased in buildBlock: it stays in the block as
// a terminator so the chain executor can retire pure-return syscalls
// inline and hand everything else to step.
func deoptOp(o isa.Op) bool {
	switch isa.Determinism(o) {
	case isa.DetKernel, isa.DetControl:
		return true
	}
	return isa.BulkState(o)
}

// runThreadFast is the hook-free twin of runThread: execute cached block
// chains when possible, fall back to single steps at boundaries the cache
// cannot cover (non-inlineable syscalls, faults, cross-page words).
func (m *Machine) runThreadFast(t *Thread, quantum int) int {
	ran := 0
	for ran < quantum && t.Alive && !m.Halted && !m.stopReq.Load() {
		blk := m.lookupBlock(t.Regs.PC)
		if blk == nil || len(blk.ins) == 0 {
			yielded, retired := m.step(t)
			if retired {
				ran++
			}
			if yielded {
				break
			}
			continue
		}
		// The armed-perf-counter budget check is hoisted here so the
		// common unarmed case pays one branch per chain, not per block.
		// Syscalls that could arm a counter never retire inside a chain,
		// so the armed set is stable across one execChain call.
		budget := quantum - ran
		if len(t.perf) > 0 {
			budget = m.blockBudget(t, budget)
		}
		n, needStep := m.execChain(t, blk, budget)
		ran += n
		if m.checkPerfOverflow(t) {
			break
		}
		if needStep {
			yielded, retired := m.step(t)
			if retired {
				ran++
			}
			if yielded {
				break
			}
		}
	}
	return ran
}

// blockBudget bounds one chain batch so no armed perf counter can overflow
// mid-batch: the overflow check after the batch then fires at exactly the
// same retired count as the per-instruction path.
func (m *Machine) blockBudget(t *Thread, quantum int) int {
	budget := quantum
	for _, p := range t.perf {
		if p.Fired {
			continue
		}
		left := p.Period - (t.Retired - p.base)
		if left < uint64(budget) {
			budget = int(left)
		}
	}
	return budget
}

// cacheCapacity returns the block-cache page bound (test-overridable).
func (m *Machine) cacheCapacity() int {
	if m.cacheCap > 0 {
		return m.cacheCap
	}
	return maxCachedPages
}

// evictCold makes room in the block cache with second-chance eviction:
// pages looked up since the previous sweep survive and lose their
// reference bit, cold pages are dropped. If everything is hot an arbitrary
// quarter is dropped so the sweep always frees room. Eviction is invisible
// to correctness: it does not advance the address-space clock, so chain
// links into an evicted page's blocks keep validating by okClock — the
// decoded code is still exact — until the address space actually changes.
func (m *Machine) evictCold() {
	evicted := 0
	for pn, pb := range m.bcache {
		if pb.hot {
			pb.hot = false
		} else {
			delete(m.bcache, pn)
			evicted++
		}
	}
	if evicted == 0 {
		target := len(m.bcache)/4 + 1
		for pn := range m.bcache {
			delete(m.bcache, pn)
			if evicted++; evicted >= target {
				break
			}
		}
	}
	m.lastPN, m.lastPB = 0, nil
	m.stepDec = nil
}

// lookupBlock returns the decoded block starting at pc, building it on
// demand and re-validating it against the page-generation clock. nil means
// pc is not mapped executable (step will raise the fault); an empty block
// means "single-step this address". Hot entries are promoted to
// superblocks here — this is the one place with the page handle in hand.
func (m *Machine) lookupBlock(pc uint64) *dblock {
	pb := m.pageEntry(pc)
	if pb == nil {
		return nil
	}
	as := m.Proc.AS
	clock := as.Clock()
	blk := pb.blocks[pc]
	if blk == nil {
		blk = m.buildBlock(pc)
		pb.blocks[pc] = blk
	} else if blk.okClock != clock {
		if m.pagesValid(blk) {
			blk.okClock = clock
		} else {
			// The code changed under the block (a superblock's tail page
			// was rewritten). Replace it; backdating okClock guarantees
			// stale chain links into the dead block never validate again.
			blk.okClock--
			blk = m.buildBlock(pc)
			pb.blocks[pc] = blk
		}
	}
	if blk.heat <= superThreshold {
		blk.heat++
	} else if !blk.superDone && !m.building {
		blk.superDone = true
		if sb := m.buildSuper(pc, blk); sb != nil {
			// Retire the plain block: backdate its okClock so existing
			// chain links stop validating and re-resolve — through here —
			// to the superblock.
			blk.okClock--
			sb.heat = blk.heat
			blk = sb
			pb.blocks[pc] = sb
		}
	}
	return blk
}

// pageEntry returns the block-cache entry of the executable page holding
// pc at the page's current generation, creating it on demand (and evicting
// cold pages to make room). nil means pc is not mapped executable.
func (m *Machine) pageEntry(pc uint64) *pageBlocks {
	gen, ok := m.Proc.AS.ExecGen(pc)
	if !ok {
		return nil
	}
	pn := mem.PageNum(pc)
	pb := m.lastPB
	if pb == nil || m.lastPN != pn || pb.gen != gen {
		if m.bcache == nil {
			m.bcache = make(map[uint64]*pageBlocks)
		}
		pb = m.bcache[pn]
		if pb == nil || pb.gen != gen {
			if len(m.bcache) >= m.cacheCapacity() {
				m.evictCold()
			}
			pb = &pageBlocks{gen: gen, blocks: make(map[uint64]*dblock)}
			m.bcache[pn] = pb
		}
		m.lastPN, m.lastPB = pn, pb
	}
	pb.hot = true
	return pb
}

// stepInst returns the instruction at pc from its page's decode table,
// decoding it into the slot on first use. It returns the slot itself, not
// a copy: an isa.Inst returned by value comes back in registers, and the
// caller's narrow spills followed by one wide reload stall store
// forwarding on every step. nil means step must fetch and decode itself —
// the table is off (DisableBlockCache), or pc is not executable,
// unaligned, the start of a page-straddling LIMM or an undecodable word —
// so every fault stays on the reference path.
//
// The hit path is one compare chain: the current page's table is memoized
// with the address-space clock, and reused while the clock has not moved,
// exactly as chain links ride on okClock. Any mapping change or
// executable-page write advances the clock and forces the next step to
// re-resolve the page through the block cache, which validates the
// generation. Eviction and Reset drop the memo with the cache.
func (m *Machine) stepInst(pc uint64) *isa.Inst {
	if m.DisableBlockCache {
		return nil
	}
	as := m.Proc.AS
	pn, clock := mem.PageNum(pc), as.Clock()
	dt := m.stepDec
	if dt == nil || m.stepPN != pn || m.stepClock != clock {
		pb := m.pageEntry(pc)
		if pb == nil {
			return nil
		}
		if pb.dec == nil {
			pb.dec = new(decodeTable)
		}
		dt = pb.dec
		m.stepDec, m.stepPN, m.stepClock = dt, pn, clock
	}
	off := pc & pageMask
	if off%isa.InstLen != 0 {
		return nil
	}
	slot := off / isa.InstLen
	if dt.have[slot/64]&(1<<(slot%64)) != 0 {
		return &dt.ins[slot]
	}
	win, _, err := as.ExecWindow(pc)
	if err != nil {
		return nil
	}
	ins, _, err := isa.Decode(win)
	if err != nil {
		return nil
	}
	dt.ins[slot] = ins
	dt.have[slot/64] |= 1 << (slot % 64)
	return &dt.ins[slot]
}

// pagesValid re-checks every page generation a block was decoded from.
// Basic blocks (pages == nil) span only their entry page, which the cache
// key validates; superblocks carry the full list.
func (m *Machine) pagesValid(blk *dblock) bool {
	for _, pg := range blk.pages {
		gen, ok := m.Proc.AS.ExecGen(pg.pn << mem.PageShift)
		if !ok || gen != pg.gen {
			return false
		}
	}
	return true
}

// buildBlock predecodes the straight-line run at pc, truncating at the
// first deopt opcode. SYSCALL is kept as a block terminator (see
// execChain's inline fast path). Basic blocks never span pages: the
// predecoder stops at the page's end, and a word straddling the boundary
// is simply left to step.
func (m *Machine) buildBlock(pc uint64) *dblock {
	as := m.Proc.AS
	win, _, err := as.ExecWindow(pc)
	if err != nil {
		return &dblock{okClock: as.Clock()}
	}
	ins := isa.PredecodeBlock(win, pc, maxBlockLen)
	for i := range ins {
		if op := ins[i].Op; deoptOp(op) {
			if op == isa.SYSCALL {
				ins = ins[:i+1]
			} else {
				ins = ins[:i]
			}
			break
		}
	}
	spc := make([]uint64, len(ins))
	for i := range ins {
		spc[i] = ins[i].PC()
	}
	b := &dblock{ins: ins, spc: spc, okClock: as.Clock()}
	attachRuns(b)
	return b
}

// batchOp reports opcodes the batch executor can retire inside a run:
// everything runSeg handles, plus the loads, stores, and stack ops whose
// TLB-head misses the memop tier recovers with exact spill state (a
// fault, or a store that advances the page-generation clock). Control
// transfers are excluded — a run must be straight-line — and so are
// RDTSC, SYSCALL, and the vector memory ops: the per-instruction retire
// paths handle those at full precision, and runs broken around them
// would be too short to amortize a runSeg call anyway.
func batchOp(o isa.Op) bool {
	switch o {
	case isa.NOP, isa.FENCE, isa.SSCMARK, isa.MAGIC,
		isa.MOV, isa.MOVI, isa.LIMM,
		isa.ADD, isa.SUB, isa.MUL, isa.UDIV, isa.SDIV, isa.UREM,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR,
		isa.NOT, isa.NEG,
		isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI,
		isa.LEA1, isa.LEA8,
		isa.CMP, isa.CMPI, isa.TEST, isa.TESTI,
		isa.CPUID,
		isa.LDQ, isa.LDW, isa.LDH, isa.LDB, isa.LDSB, isa.LDSH, isa.LDSW,
		isa.STQ, isa.STW, isa.STH, isa.STB,
		isa.PUSH, isa.PUSHF, isa.POP, isa.POPF,
		isa.WRFSBASE, isa.RDFSBASE, isa.WRGSBASE, isa.RDGSBASE,
		isa.VADDQ, isa.VMULQ, isa.VXOR, isa.VMOVQ, isa.MOVQV:
		return true
	}
	return false
}

// attachRuns computes the batch-op run lengths for a block (see
// dblock.run). A run may only flow into the next instruction when
// execution is guaranteed sequential there: the op's Next equals the next
// recorded PC, which is trivially true inside a basic block and holds
// across superblock splice boundaries exactly when the boundary is a
// fall-through.
func attachRuns(b *dblock) {
	n := len(b.ins)
	b.run = make([]uint16, n)
	for j := n - 1; j >= 0; j-- {
		if !batchOp(b.ins[j].Op) {
			continue
		}
		r := uint16(1)
		if j+1 < n && b.ins[j].Next == b.spc[j+1] {
			r += b.run[j+1]
		}
		b.run[j] = r
	}
	// Tight self-loop: the terminator jumps straight back to the entry and
	// the whole body is one batch run, so the executor may retire entire
	// iterations inside runSeg with the backedge evaluated inline.
	if n >= 2 && int(b.run[0]) == n-1 {
		switch t := &b.ins[n-1]; t.Op {
		case isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE,
			isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
			b.loop = t.Target == b.spc[0]
		}
	}
}

// buildSuper splices the observed hot control-flow path starting at entry
// into one straight-line superblock crossing branches, calls, and pages.
// The trace follows each constituent block's last observed successor
// (lastNext) and stops when the path closes (back to the entry, or any
// block repeats — inner loop back-edges), leaves batchable code, or hits
// the size caps. No compensation code is needed at splice boundaries: the
// executor's universal side-exit rule (computed successor must equal the
// next spliced PC) guards every boundary at run time, so a cold-path
// branch simply transfers out with precise state. Returns nil when the
// trace would be no longer than the entry block itself — a pure self-loop,
// which plain self-chaining already runs back to back.
func (m *Machine) buildSuper(entryPC uint64, entry *dblock) *dblock {
	as := m.Proc.AS
	m.building = true
	defer func() { m.building = false }()

	var (
		ins   []isa.DecInst
		spc   []uint64
		pages []pageGen
	)
	addPage := func(pc uint64) bool {
		pn := mem.PageNum(pc)
		for _, pg := range pages {
			if pg.pn == pn {
				return true
			}
		}
		gen, ok := as.ExecGen(pc)
		if !ok {
			return false
		}
		pages = append(pages, pageGen{pn: pn, gen: gen})
		return true
	}
	seen := make(map[uint64]bool)
	pc, blk := entryPC, entry
	for len(ins) < maxSuperLen && len(seen) < maxSuperBlocks {
		if blk == nil || len(blk.ins) == 0 || seen[pc] || !addPage(pc) {
			break
		}
		seen[pc] = true
		ins = append(ins, blk.ins...)
		spc = append(spc, blk.spc...)
		nxt := blk.lastNext
		if nxt == 0 || nxt == entryPC {
			break
		}
		pc = nxt
		blk = m.lookupBlock(nxt)
	}
	if len(ins) <= len(entry.ins) {
		return nil
	}
	if len(ins) > maxSuperLen {
		ins, spc = ins[:maxSuperLen], spc[:maxSuperLen]
	}
	sb := &dblock{ins: ins, spc: spc, pages: pages,
		okClock: as.Clock(), superDone: true}
	attachRuns(sb)
	return sb
}

// syscallInline retires a side-effect-free system call without spilling
// hot state or entering the full kernel dispatch. Two providers: the
// kernel's own pure-return fast path (native runs), or the
// Hooks.SyscallFast injection fast path (constrained replay). Anything
// else — observation hooks installed, impure syscalls, a mismatched log
// entry — declines, and the caller hands the instruction to step for full
// semantics.
func (m *Machine) syscallInline(t *Thread, num uint64) (uint64, bool) {
	h := &m.Hooks
	if h.OnSyscall != nil {
		return 0, false
	}
	if h.SyscallFilter != nil {
		if h.SyscallFast == nil {
			return 0, false
		}
		return h.SyscallFast(t, num)
	}
	return m.Kernel.SyscallFast(num)
}

// chainLoad is the block executor's out-of-line load path: an in-page
// access goes through the read TLB and returns the page handle so the
// caller can refill its local TLB head; a page-straddling access takes the
// general path. A fault is returned, not raised — the caller must spill
// hot state before handleFault.
func chainLoad(as *mem.AddrSpace, addr uint64, size int) (uint64, *[mem.PageSize]byte, error) {
	off := addr & pageMask
	if off+uint64(size) <= mem.PageSize {
		if pg := as.ReadPage(addr); pg != nil {
			b := pg[off:]
			switch size {
			case 8:
				return binary.LittleEndian.Uint64(b), pg, nil
			case 4:
				return uint64(binary.LittleEndian.Uint32(b)), pg, nil
			case 2:
				return uint64(binary.LittleEndian.Uint16(b)), pg, nil
			default:
				return uint64(b[0]), pg, nil
			}
		}
	}
	var buf [8]byte
	if err := as.Read(addr, buf[:size]); err != nil {
		return 0, nil, err
	}
	return leBytes(buf[:size]), nil, nil
}

// chainStore is the store twin of chainLoad. The in-page path never sees
// an executable page — mem.WritePage refuses them — so every store that
// could be self-modifying code funnels through AddrSpace.Write, which
// stamps the page generation and advances the clock the executor re-checks
// after each instruction.
func chainStore(as *mem.AddrSpace, addr, v uint64, size int) (*[mem.PageSize]byte, error) {
	off := addr & pageMask
	if off+uint64(size) <= mem.PageSize {
		if pg := as.WritePage(addr); pg != nil {
			b := pg[off:]
			switch size {
			case 8:
				binary.LittleEndian.PutUint64(b, v)
			case 4:
				binary.LittleEndian.PutUint32(b, uint32(v))
			case 2:
				binary.LittleEndian.PutUint16(b, uint16(v))
			default:
				b[0] = byte(v)
			}
			return pg, nil
		}
	}
	var buf [8]byte
	putBytes(buf[:], v)
	if err := as.Write(addr, buf[:size]); err != nil {
		return nil, err
	}
	return nil, nil
}

// runSeg retires the register-only and TLB-head-hit portion of a batch
// run — sl[i:end] — stopping early at the first op that needs the memop
// tier: a head miss, or a stack op on a fresh page. It returns the new
// instruction index, flags, and the completed loop-iteration count;
// i < end signals an early stop with sl[i] unexecuted. Nothing in here
// can fault, advance the address-space clock (the write head never holds
// an executable page), or leave the run, which is why the caller can
// hoist every per-instruction check. Kept out of execChain — and marked
// noinline — deliberately: as a call-free leaf the register allocator
// pins the hot state (guest registers, flags, TLB heads, cursor) in
// machine registers, where the same loop inlined into execChain pays
// per-iteration stack reloads of everything execChain keeps live.
//
// Loop mode (maxIters > 0, only for dblock.loop blocks): sl is the whole
// block, end indexes its backedge terminator, and after the body retires
// the branch at sl[end] is evaluated inline — taken means another
// iteration runs without leaving the function, up to maxIters complete
// trips. The caller accounts wrapped*len(sl) retired instructions on top
// of the i ops of the final partial iteration; a return with i == end
// means the backedge was not taken and is still unexecuted, i == 0 with
// wrapped == maxIters means the budget slice is used up. maxIters == 0
// is plain segment mode, where sl[end] is never touched (and for
// sl == ins[:end] would be out of range).
//
//go:noinline
func runSeg(sl []isa.DecInst, i, end, maxIters int, g *[isa.NumGPR]uint64, flags uint64,
	rdPN, wrPN uint64, rdPg, wrPg *[mem.PageSize]byte, r *isa.RegFile) (int, uint64, int) {
	wrapped := 0
loop:
	for ; i < end; i++ {
		d := &sl[i]
		switch d.Op {
		case isa.NOP, isa.FENCE, isa.SSCMARK, isa.MAGIC:
			// Markers are no-ops: fastPathOK guarantees no OnIns sees them.
		case isa.MOV:
			g[d.A&15] = g[d.B&15]
		case isa.MOVI, isa.LIMM:
			g[d.A&15] = d.Imm
		case isa.ADD:
			g[d.A&15] = g[d.B&15] + g[d.C&15]
		case isa.SUB:
			g[d.A&15] = g[d.B&15] - g[d.C&15]
		case isa.MUL:
			g[d.A&15] = g[d.B&15] * g[d.C&15]
		case isa.UDIV:
			if g[d.C&15] == 0 {
				g[d.A&15] = ^uint64(0)
			} else {
				g[d.A&15] = g[d.B&15] / g[d.C&15]
			}
		case isa.SDIV:
			if g[d.C&15] == 0 {
				g[d.A&15] = ^uint64(0)
			} else {
				g[d.A&15] = uint64(int64(g[d.B&15]) / int64(g[d.C&15]))
			}
		case isa.UREM:
			if g[d.C&15] == 0 {
				g[d.A&15] = g[d.B&15]
			} else {
				g[d.A&15] = g[d.B&15] % g[d.C&15]
			}
		case isa.AND:
			g[d.A&15] = g[d.B&15] & g[d.C&15]
		case isa.OR:
			g[d.A&15] = g[d.B&15] | g[d.C&15]
		case isa.XOR:
			g[d.A&15] = g[d.B&15] ^ g[d.C&15]
		case isa.SHL:
			g[d.A&15] = g[d.B&15] << (g[d.C&15] & 63)
		case isa.SHR:
			g[d.A&15] = g[d.B&15] >> (g[d.C&15] & 63)
		case isa.SAR:
			g[d.A&15] = uint64(int64(g[d.B&15]) >> (g[d.C&15] & 63))
		case isa.NOT:
			g[d.A&15] = ^g[d.B&15]
		case isa.NEG:
			g[d.A&15] = -g[d.B&15]
		case isa.ADDI:
			g[d.A&15] = g[d.B&15] + d.Imm
		case isa.MULI:
			g[d.A&15] = g[d.B&15] * d.Imm
		case isa.ANDI:
			g[d.A&15] = g[d.B&15] & d.Imm
		case isa.ORI:
			g[d.A&15] = g[d.B&15] | d.Imm
		case isa.XORI:
			g[d.A&15] = g[d.B&15] ^ d.Imm
		case isa.SHLI:
			g[d.A&15] = g[d.B&15] << (d.Imm & 63)
		case isa.SHRI:
			g[d.A&15] = g[d.B&15] >> (d.Imm & 63)
		case isa.SARI:
			g[d.A&15] = uint64(int64(g[d.B&15]) >> (d.Imm & 63))
		case isa.LEA1:
			g[d.A&15] = g[d.B&15] + g[d.C&15] + d.Imm
		case isa.LEA8:
			g[d.A&15] = g[d.B&15] + g[d.C&15]*8 + d.Imm
		case isa.CMP:
			flags = subFlags(g[d.B&15], g[d.C&15])
		case isa.CMPI:
			flags = subFlags(g[d.B&15], d.Imm)
		case isa.TEST:
			flags = logicFlags(g[d.B&15] & g[d.C&15])
		case isa.TESTI:
			flags = logicFlags(g[d.B&15] & d.Imm)
		case isa.CPUID:
			g[d.A&15] = 0x50564d31
		case isa.WRFSBASE:
			r.FSBase = g[d.A&15]
		case isa.RDFSBASE:
			g[d.A&15] = r.FSBase
		case isa.WRGSBASE:
			r.GSBase = g[d.A&15]
		case isa.RDGSBASE:
			g[d.A&15] = r.GSBase
		case isa.VADDQ:
			r.V[d.A&7][0] = r.V[d.B&7][0] + r.V[d.C&7][0]
			r.V[d.A&7][1] = r.V[d.B&7][1] + r.V[d.C&7][1]
		case isa.VMULQ:
			r.V[d.A&7][0] = r.V[d.B&7][0] * r.V[d.C&7][0]
			r.V[d.A&7][1] = r.V[d.B&7][1] * r.V[d.C&7][1]
		case isa.VXOR:
			r.V[d.A&7][0] = r.V[d.B&7][0] ^ r.V[d.C&7][0]
			r.V[d.A&7][1] = r.V[d.B&7][1] ^ r.V[d.C&7][1]
		case isa.VMOVQ:
			r.V[d.A&7] = [2]uint64{g[d.B&15], 0}
		case isa.MOVQV:
			g[d.A&15] = r.V[d.B&7][0]

		// Loads and stores whose address hits a TLB head run here,
		// call-free; head misses (and everything else) return to the memop
		// tier. A head-hit store cannot advance the clock (WritePage never
		// hands out executable pages) and cannot fault, so no mid-run
		// checks are needed.
		case isa.LDQ:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN || addr&pageMask > mem.PageSize-8 {
				return i, flags, wrapped
			}
			g[d.A&15] = binary.LittleEndian.Uint64(rdPg[addr&pageMask:])
		case isa.LDW:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN || addr&pageMask > mem.PageSize-4 {
				return i, flags, wrapped
			}
			g[d.A&15] = uint64(binary.LittleEndian.Uint32(rdPg[addr&pageMask:]))
		case isa.LDH:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN || addr&pageMask > mem.PageSize-2 {
				return i, flags, wrapped
			}
			g[d.A&15] = uint64(binary.LittleEndian.Uint16(rdPg[addr&pageMask:]))
		case isa.LDB:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN {
				return i, flags, wrapped
			}
			g[d.A&15] = uint64(rdPg[addr&pageMask])
		case isa.LDSB:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN {
				return i, flags, wrapped
			}
			g[d.A&15] = uint64(int64(int8(rdPg[addr&pageMask])))
		case isa.LDSH:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN || addr&pageMask > mem.PageSize-2 {
				return i, flags, wrapped
			}
			g[d.A&15] = uint64(int64(int16(binary.LittleEndian.Uint16(rdPg[addr&pageMask:]))))
		case isa.LDSW:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != rdPN || addr&pageMask > mem.PageSize-4 {
				return i, flags, wrapped
			}
			g[d.A&15] = uint64(int64(int32(binary.LittleEndian.Uint32(rdPg[addr&pageMask:]))))
		case isa.STQ:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != wrPN || addr&pageMask > mem.PageSize-8 {
				return i, flags, wrapped
			}
			binary.LittleEndian.PutUint64(wrPg[addr&pageMask:], g[d.A&15])
		case isa.STW:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != wrPN || addr&pageMask > mem.PageSize-4 {
				return i, flags, wrapped
			}
			binary.LittleEndian.PutUint32(wrPg[addr&pageMask:], uint32(g[d.A&15]))
		case isa.STH:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != wrPN || addr&pageMask > mem.PageSize-2 {
				return i, flags, wrapped
			}
			binary.LittleEndian.PutUint16(wrPg[addr&pageMask:], uint16(g[d.A&15]))
		case isa.STB:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift != wrPN {
				return i, flags, wrapped
			}
			wrPg[addr&pageMask] = byte(g[d.A&15])
		case isa.PUSH, isa.PUSHF:
			v := g[d.A&15]
			if d.Op == isa.PUSHF {
				v = flags
			}
			sp := g[isa.RSP] - 8
			if sp>>mem.PageShift != wrPN || sp&pageMask > mem.PageSize-8 {
				return i, flags, wrapped
			}
			binary.LittleEndian.PutUint64(wrPg[sp&pageMask:], v)
			g[isa.RSP] = sp
		case isa.POP, isa.POPF:
			sp := g[isa.RSP]
			if sp>>mem.PageShift != rdPN || sp&pageMask > mem.PageSize-8 {
				return i, flags, wrapped
			}
			v := binary.LittleEndian.Uint64(rdPg[sp&pageMask:])
			g[isa.RSP] = sp + 8
			if d.Op == isa.POPF {
				flags = v & isa.FlagMask
			} else {
				g[d.A&15] = v
			}

		default:
			return i, flags, wrapped
		}
	}
	if wrapped < maxIters {
		// Loop mode: evaluate the backedge at sl[end] inline. attachRuns
		// only marks blocks whose terminator is a direct (conditional)
		// jump back to sl[0], so taken simply restarts the body. The
		// condition logic mirrors condTaken, written out here because the
		// compiler declines to inline it and a real call would cost this
		// leaf its registers.
		var taken bool
		switch sl[end].Op {
		case isa.JMP:
			taken = true
		case isa.JZ:
			taken = flags&isa.FlagZ != 0
		case isa.JNZ:
			taken = flags&isa.FlagZ == 0
		case isa.JL:
			taken = (flags&isa.FlagS != 0) != (flags&isa.FlagO != 0)
		case isa.JLE:
			taken = flags&isa.FlagZ != 0 || (flags&isa.FlagS != 0) != (flags&isa.FlagO != 0)
		case isa.JG:
			taken = flags&isa.FlagZ == 0 && (flags&isa.FlagS != 0) == (flags&isa.FlagO != 0)
		case isa.JGE:
			taken = (flags&isa.FlagS != 0) == (flags&isa.FlagO != 0)
		case isa.JB:
			taken = flags&isa.FlagC != 0
		case isa.JBE:
			taken = flags&(isa.FlagC|isa.FlagZ) != 0
		case isa.JA:
			taken = flags&(isa.FlagC|isa.FlagZ) == 0
		case isa.JAE:
			taken = flags&isa.FlagC == 0
		case isa.JS:
			taken = flags&isa.FlagS != 0
		case isa.JNS:
			taken = flags&isa.FlagS == 0
		}
		if taken {
			wrapped++
			i = 0
			if wrapped < maxIters {
				goto loop
			}
		}
	}
	return i, flags, wrapped
}

// execChain executes decoded blocks starting at blk, following chain links
// across block boundaries without returning to the dispatch loop. Hot
// state — PC, flags, the retired-instruction delta, and one read and one
// write TLB head — lives in locals and is spilled to the Thread exactly
// once, at chain exit: quantum/budget boundary, address-space clock
// change, stop request, fault, or an instruction only step can run. The
// bool result reports that last case — the instruction at t.Regs.PC (a
// syscall the inline path declined, or an unbatchable address) must be
// executed by Machine.step.
//
// Architectural effects commit per instruction in program order, so a
// fault or side exit leaves the thread exactly at the offending
// instruction with all prior effects applied — indistinguishable from the
// per-instruction path. The clock is re-checked after every retired
// instruction: a store into any executable page ends the chain before the
// next (possibly stale) cached instruction could run, which is what makes
// SMC that rewrites a *later* block of the current chain safe.
//
// The local TLB heads cache one readable and one writable page each
// (never executable ones, see chainStore); they stay coherent because
// page data is only ever mutated in place, and mapping changes can only
// happen inside syscalls, which always exit or re-enter the chain.
func (m *Machine) execChain(t *Thread, blk *dblock, budget int) (int, bool) {
	as := m.Proc.AS
	r := &t.Regs
	g := &r.GPR
	clock := as.Clock()
	pc := r.PC
	flags := r.Flags
	ran := 0
	i := 0
	needStep := false
	var fErr error
	var d *isa.DecInst
	var next uint64
	rdPN := ^uint64(0)
	wrPN := ^uint64(0)
	var rdPg, wrPg *[mem.PageSize]byte
	// blk.ins[:i] is the current visit's retired, not yet reported run.
	onBlock := m.Hooks.OnBlock

	for {
		// Loop mode: a tight self-loop whose whole body is batchable runs
		// entire iterations inside runSeg, backedge included, bounded by the
		// remaining budget. On return the executor resumes per-instruction
		// at sl[i] — the op after the final complete iteration (budget slice
		// spent, i == 0), a TLB-head miss mid-body, or the not-taken
		// backedge (i == last) — so quantum, perf-counter, and side-exit
		// semantics are exactly those of per-instruction execution.
		if blk.loop && i == 0 {
			if iters := (budget - ran) / len(blk.ins); iters > 0 {
				var w int
				i, flags, w = runSeg(blk.ins, 0, len(blk.ins)-1, iters,
					g, flags, rdPN, wrPN, rdPg, wrPg, r)
				// w complete iterations plus the i leading ops of the final
				// partial one retired; sl[i] is the next op to execute.
				ran += w*len(blk.ins) + i
				pc = blk.spc[i]
				if onBlock != nil && w > 0 {
					onBlock(t, blk.ins, w)
				}
				goto perins
			}
		}
		// Batch run: retire a straight-line run of batchable ops with the
		// budget and side-exit checks hoisted out of the loop. Nothing in a
		// run can branch or enter the scheduler, and the rare events that do
		// interrupt one (a fault, a declined syscall, a store that advances
		// the clock) carry exact recovery state, so batching is precisely
		// equivalent to per-instruction execution.
		if n := int(blk.run[i]); n >= segMin && ran+n <= budget {
			// start lets the rare bail-outs (fault, SMC store) reconstruct
			// the exact retired count mid-run.
			start := i
			end := i + n
			sl := blk.ins[:end]
		seg:
			// The register-only segment runs in runSeg, a call-free leaf
			// compiled with every hot value in a machine register. It stops
			// at the first op that needs memory help (TLB-head miss, stack
			// spill, ...), which the memop tier below handles before
			// re-entering the segment.
			if end-i >= segMin {
				i, flags, _ = runSeg(sl, i, end, 0, g, flags, rdPN, wrPN, rdPg, wrPg, r)
				if i < end {
					d = &sl[i]
					goto memop
				}
			} else if i < end {
				// Tail too short to amortize a runSeg call: account batch
				// progress and finish it on the per-instruction path.
				ran += i - start
				pc = blk.spc[i]
				goto perins
			}
			d = &sl[end-1]
			ran += n
			pc = d.Next
			if i < len(blk.ins) {
				continue
			}
			goto trans

		memop:
			// Memory tier of a run: loads, stores, and stack ops whose TLB
			// head missed, kept out of the segment loop above so its codegen
			// stays call-free.
			switch d.Op {
			case isa.LDQ:
				addr := g[d.B&15] + d.Imm
				if addr>>mem.PageShift == rdPN && addr&pageMask <= mem.PageSize-8 {
					g[d.A&15] = binary.LittleEndian.Uint64(rdPg[addr&pageMask:])
				} else {
					v, pg, err := chainLoad(as, addr, 8)
					if err != nil {
						fErr = err
						ran += i - start
						pc = blk.spc[i]
						goto fault
					}
					if pg != nil {
						rdPN, rdPg = addr>>mem.PageShift, pg
					}
					g[d.A&15] = v
				}
			case isa.LDW, isa.LDH, isa.LDB, isa.LDSB, isa.LDSH, isa.LDSW:
				addr := g[d.B&15] + d.Imm
				size := 1
				switch d.Op {
				case isa.LDW, isa.LDSW:
					size = 4
				case isa.LDH, isa.LDSH:
					size = 2
				}
				v, pg, err := chainLoad(as, addr, size)
				if err != nil {
					fErr = err
					ran += i - start
					pc = blk.spc[i]
					goto fault
				}
				if pg != nil {
					rdPN, rdPg = addr>>mem.PageShift, pg
				}
				switch d.Op {
				case isa.LDSB:
					v = uint64(int64(int8(v)))
				case isa.LDSH:
					v = uint64(int64(int16(v)))
				case isa.LDSW:
					v = uint64(int64(int32(v)))
				}
				g[d.A&15] = v

			case isa.STQ:
				addr := g[d.B&15] + d.Imm
				if addr>>mem.PageShift == wrPN && addr&pageMask <= mem.PageSize-8 {
					binary.LittleEndian.PutUint64(wrPg[addr&pageMask:], g[d.A&15])
				} else {
					pg, err := chainStore(as, addr, g[d.A&15], 8)
					if err != nil {
						fErr = err
						ran += i - start
						pc = blk.spc[i]
						goto fault
					}
					if pg != nil {
						// Head refill: WritePage vetted the page as
						// non-executable, so the clock cannot have moved.
						wrPN, wrPg = addr>>mem.PageShift, pg
					} else if as.Clock() != clock {
						i++
						ran += i - start
						pc = d.Next
						goto out
					}
				}
			case isa.STW, isa.STH, isa.STB:
				addr := g[d.B&15] + d.Imm
				size := 1
				switch d.Op {
				case isa.STW:
					size = 4
				case isa.STH:
					size = 2
				}
				pg, err := chainStore(as, addr, g[d.A&15], size)
				if err != nil {
					fErr = err
					ran += i - start
					pc = blk.spc[i]
					goto fault
				}
				if pg != nil {
					wrPN, wrPg = addr>>mem.PageShift, pg
				} else if as.Clock() != clock {
					i++
					ran += i - start
					pc = d.Next
					goto out
				}

			case isa.PUSH, isa.PUSHF:
				v := g[d.A&15]
				if d.Op == isa.PUSHF {
					v = flags
				}
				sp := g[isa.RSP] - 8
				if sp>>mem.PageShift == wrPN && sp&pageMask <= mem.PageSize-8 {
					binary.LittleEndian.PutUint64(wrPg[sp&pageMask:], v)
				} else {
					pg, err := chainStore(as, sp, v, 8)
					if err != nil {
						fErr = err
						ran += i - start
						pc = blk.spc[i]
						goto fault
					}
					if pg != nil {
						wrPN, wrPg = sp>>mem.PageShift, pg
					} else if as.Clock() != clock {
						g[isa.RSP] = sp
						i++
						ran += i - start
						pc = d.Next
						goto out
					}
				}
				g[isa.RSP] = sp
			case isa.POP, isa.POPF:
				sp := g[isa.RSP]
				var v uint64
				if sp>>mem.PageShift == rdPN && sp&pageMask <= mem.PageSize-8 {
					v = binary.LittleEndian.Uint64(rdPg[sp&pageMask:])
				} else {
					lv, pg, err := chainLoad(as, sp, 8)
					if err != nil {
						fErr = err
						ran += i - start
						pc = blk.spc[i]
						goto fault
					}
					if pg != nil {
						rdPN, rdPg = sp>>mem.PageShift, pg
					}
					v = lv
				}
				g[isa.RSP] = sp + 8
				if d.Op == isa.POPF {
					flags = v & isa.FlagMask
				} else {
					g[d.A&15] = v
				}

			default:
				// batchOp admits nothing else; if the tiers ever drift,
				// fall back to the precise step path instead of silently
				// skipping the op.
				needStep = true
				ran += i - start
				pc = blk.spc[i]
				goto out
			}
			i++
			goto seg
		}
	perins:
		if ran >= budget {
			goto out
		}
		d = &blk.ins[i]
		next = d.Next

		switch d.Op {
		case isa.NOP, isa.FENCE, isa.SSCMARK, isa.MAGIC:
			// Markers are no-ops here: fastPathOK guarantees no OnIns sees them.

		case isa.MOV:
			g[d.A&15] = g[d.B&15]
		case isa.MOVI, isa.LIMM:
			g[d.A&15] = d.Imm

		case isa.ADD:
			g[d.A&15] = g[d.B&15] + g[d.C&15]
		case isa.SUB:
			g[d.A&15] = g[d.B&15] - g[d.C&15]
		case isa.MUL:
			g[d.A&15] = g[d.B&15] * g[d.C&15]
		case isa.UDIV:
			if g[d.C&15] == 0 {
				g[d.A&15] = ^uint64(0)
			} else {
				g[d.A&15] = g[d.B&15] / g[d.C&15]
			}
		case isa.SDIV:
			if g[d.C&15] == 0 {
				g[d.A&15] = ^uint64(0)
			} else {
				g[d.A&15] = uint64(int64(g[d.B&15]) / int64(g[d.C&15]))
			}
		case isa.UREM:
			if g[d.C&15] == 0 {
				g[d.A&15] = g[d.B&15]
			} else {
				g[d.A&15] = g[d.B&15] % g[d.C&15]
			}
		case isa.AND:
			g[d.A&15] = g[d.B&15] & g[d.C&15]
		case isa.OR:
			g[d.A&15] = g[d.B&15] | g[d.C&15]
		case isa.XOR:
			g[d.A&15] = g[d.B&15] ^ g[d.C&15]
		case isa.SHL:
			g[d.A&15] = g[d.B&15] << (g[d.C&15] & 63)
		case isa.SHR:
			g[d.A&15] = g[d.B&15] >> (g[d.C&15] & 63)
		case isa.SAR:
			g[d.A&15] = uint64(int64(g[d.B&15]) >> (g[d.C&15] & 63))
		case isa.NOT:
			g[d.A&15] = ^g[d.B&15]
		case isa.NEG:
			g[d.A&15] = -g[d.B&15]

		case isa.ADDI:
			g[d.A&15] = g[d.B&15] + d.Imm
		case isa.MULI:
			g[d.A&15] = g[d.B&15] * d.Imm
		case isa.ANDI:
			g[d.A&15] = g[d.B&15] & d.Imm
		case isa.ORI:
			g[d.A&15] = g[d.B&15] | d.Imm
		case isa.XORI:
			g[d.A&15] = g[d.B&15] ^ d.Imm
		case isa.SHLI:
			g[d.A&15] = g[d.B&15] << (d.Imm & 63)
		case isa.SHRI:
			g[d.A&15] = g[d.B&15] >> (d.Imm & 63)
		case isa.SARI:
			g[d.A&15] = uint64(int64(g[d.B&15]) >> (d.Imm & 63))

		case isa.LEA1:
			g[d.A&15] = g[d.B&15] + g[d.C&15] + d.Imm
		case isa.LEA8:
			g[d.A&15] = g[d.B&15] + g[d.C&15]*8 + d.Imm

		case isa.LDQ:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift == rdPN && addr&pageMask <= mem.PageSize-8 {
				g[d.A&15] = binary.LittleEndian.Uint64(rdPg[addr&pageMask:])
			} else {
				v, pg, err := chainLoad(as, addr, 8)
				if err != nil {
					fErr = err
					goto fault
				}
				if pg != nil {
					rdPN, rdPg = addr>>mem.PageShift, pg
				}
				g[d.A&15] = v
			}
		case isa.LDW, isa.LDH, isa.LDB, isa.LDSB, isa.LDSH, isa.LDSW:
			addr := g[d.B&15] + d.Imm
			size := 1
			switch d.Op {
			case isa.LDW, isa.LDSW:
				size = 4
			case isa.LDH, isa.LDSH:
				size = 2
			}
			v, pg, err := chainLoad(as, addr, size)
			if err != nil {
				fErr = err
				goto fault
			}
			if pg != nil {
				rdPN, rdPg = addr>>mem.PageShift, pg
			}
			switch d.Op {
			case isa.LDSB:
				v = uint64(int64(int8(v)))
			case isa.LDSH:
				v = uint64(int64(int16(v)))
			case isa.LDSW:
				v = uint64(int64(int32(v)))
			}
			g[d.A&15] = v

		case isa.STQ:
			addr := g[d.B&15] + d.Imm
			if addr>>mem.PageShift == wrPN && addr&pageMask <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(wrPg[addr&pageMask:], g[d.A&15])
			} else {
				pg, err := chainStore(as, addr, g[d.A&15], 8)
				if err != nil {
					fErr = err
					goto fault
				}
				if pg != nil {
					wrPN, wrPg = addr>>mem.PageShift, pg
				}
			}
			goto retireStore
		case isa.STW, isa.STH, isa.STB:
			addr := g[d.B&15] + d.Imm
			size := 1
			switch d.Op {
			case isa.STW:
				size = 4
			case isa.STH:
				size = 2
			}
			pg, err := chainStore(as, addr, g[d.A&15], size)
			if err != nil {
				fErr = err
				goto fault
			}
			if pg != nil {
				wrPN, wrPg = addr>>mem.PageShift, pg
			}
			goto retireStore

		case isa.CMP:
			flags = subFlags(g[d.B&15], g[d.C&15])
		case isa.CMPI:
			flags = subFlags(g[d.B&15], d.Imm)
		case isa.TEST:
			flags = logicFlags(g[d.B&15] & g[d.C&15])
		case isa.TESTI:
			flags = logicFlags(g[d.B&15] & d.Imm)

		case isa.JMP:
			next = d.Target
		case isa.JZ, isa.JNZ, isa.JL, isa.JLE, isa.JG, isa.JGE,
			isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
			if condTaken(d.Op, flags) {
				next = d.Target
			}
		case isa.JMPR:
			next = g[d.B&15]
		case isa.JMPM:
			v, _, err := chainLoad(as, d.Target, 8)
			if err != nil {
				fErr = err
				goto fault
			}
			next = v
		case isa.CALL, isa.CALLR:
			target := d.Target
			if d.Op == isa.CALLR {
				target = g[d.B&15]
			}
			// Store before committing RSP so a stack fault leaves RSP
			// unchanged for the retry, as in step.
			sp := g[isa.RSP] - 8
			if sp>>mem.PageShift == wrPN && sp&pageMask <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(wrPg[sp&pageMask:], d.Next)
			} else {
				pg, err := chainStore(as, sp, d.Next, 8)
				if err != nil {
					fErr = err
					goto fault
				}
				if pg != nil {
					wrPN, wrPg = sp>>mem.PageShift, pg
				}
			}
			g[isa.RSP] = sp
			next = target
			goto retireStore
		case isa.RET:
			sp := g[isa.RSP]
			var v uint64
			if sp>>mem.PageShift == rdPN && sp&pageMask <= mem.PageSize-8 {
				v = binary.LittleEndian.Uint64(rdPg[sp&pageMask:])
			} else {
				lv, pg, err := chainLoad(as, sp, 8)
				if err != nil {
					fErr = err
					goto fault
				}
				if pg != nil {
					rdPN, rdPg = sp>>mem.PageShift, pg
				}
				v = lv
			}
			g[isa.RSP] = sp + 8
			next = v

		case isa.PUSH, isa.PUSHF:
			v := g[d.A&15]
			if d.Op == isa.PUSHF {
				v = flags
			}
			sp := g[isa.RSP] - 8
			if sp>>mem.PageShift == wrPN && sp&pageMask <= mem.PageSize-8 {
				binary.LittleEndian.PutUint64(wrPg[sp&pageMask:], v)
			} else {
				pg, err := chainStore(as, sp, v, 8)
				if err != nil {
					fErr = err
					goto fault
				}
				if pg != nil {
					wrPN, wrPg = sp>>mem.PageShift, pg
				}
			}
			g[isa.RSP] = sp
			goto retireStore
		case isa.POP, isa.POPF:
			sp := g[isa.RSP]
			var v uint64
			if sp>>mem.PageShift == rdPN && sp&pageMask <= mem.PageSize-8 {
				v = binary.LittleEndian.Uint64(rdPg[sp&pageMask:])
			} else {
				lv, pg, err := chainLoad(as, sp, 8)
				if err != nil {
					fErr = err
					goto fault
				}
				if pg != nil {
					rdPN, rdPg = sp>>mem.PageShift, pg
				}
				v = lv
			}
			g[isa.RSP] = sp + 8
			if d.Op == isa.POPF {
				flags = v & isa.FlagMask
			} else {
				g[d.A&15] = v
			}

		case isa.CPUID:
			g[d.A&15] = 0x50564d31
		case isa.RDTSC:
			g[d.A&15] = m.Kernel.Clock.Now(m.GlobalRetired + uint64(ran))

		case isa.SYSCALL:
			ret, ok := m.syscallInline(t, g[isa.R0])
			if !ok {
				needStep = true
				goto out
			}
			g[isa.R0] = ret

		case isa.XCHG:
			addr := g[d.B&15] + d.Imm
			old, _, err := chainLoad(as, addr, 8)
			if err != nil {
				fErr = err
				goto fault
			}
			if _, err := chainStore(as, addr, g[d.A&15], 8); err != nil {
				fErr = err
				goto fault
			}
			g[d.A&15] = old
			goto retireStore
		case isa.XADD:
			addr := g[d.B&15] + d.Imm
			old, _, err := chainLoad(as, addr, 8)
			if err != nil {
				fErr = err
				goto fault
			}
			if _, err := chainStore(as, addr, old+g[d.A&15], 8); err != nil {
				fErr = err
				goto fault
			}
			g[d.A&15] = old
			goto retireStore
		case isa.CMPXCHG:
			addr := g[d.B&15] + d.Imm
			old, _, err := chainLoad(as, addr, 8)
			if err != nil {
				fErr = err
				goto fault
			}
			if old == g[isa.R0] {
				if _, err := chainStore(as, addr, g[d.A&15], 8); err != nil {
					fErr = err
					goto fault
				}
				flags = isa.FlagZ
			} else {
				g[isa.R0] = old
				flags = 0
			}
			goto retireStore

		case isa.WRFSBASE:
			r.FSBase = g[d.A&15]
		case isa.RDFSBASE:
			g[d.A&15] = r.FSBase
		case isa.WRGSBASE:
			r.GSBase = g[d.A&15]
		case isa.RDGSBASE:
			g[d.A&15] = r.GSBase

		case isa.VLD:
			addr := g[d.B&15] + d.Imm
			var buf [16]byte
			if err := as.Read(addr, buf[:]); err != nil {
				fErr = err
				goto fault
			}
			r.V[d.A&7][0] = leBytes(buf[:8])
			r.V[d.A&7][1] = leBytes(buf[8:])
		case isa.VST:
			addr := g[d.B&15] + d.Imm
			var buf [16]byte
			putBytes(buf[:8], r.V[d.A&7][0])
			putBytes(buf[8:], r.V[d.A&7][1])
			if err := as.Write(addr, buf[:]); err != nil {
				fErr = err
				goto fault
			}
			goto retireStore
		case isa.VADDQ:
			r.V[d.A&7][0] = r.V[d.B&7][0] + r.V[d.C&7][0]
			r.V[d.A&7][1] = r.V[d.B&7][1] + r.V[d.C&7][1]
		case isa.VMULQ:
			r.V[d.A&7][0] = r.V[d.B&7][0] * r.V[d.C&7][0]
			r.V[d.A&7][1] = r.V[d.B&7][1] * r.V[d.C&7][1]
		case isa.VXOR:
			r.V[d.A&7][0] = r.V[d.B&7][0] ^ r.V[d.C&7][0]
			r.V[d.A&7][1] = r.V[d.B&7][1] ^ r.V[d.C&7][1]
		case isa.VMOVQ:
			r.V[d.A&7] = [2]uint64{g[d.B&15], 0}
		case isa.MOVQV:
			g[d.A&15] = r.V[d.B&7][0]

		default:
			// Deopt opcodes never reach a block (buildBlock truncates), but
			// stay safe: hand the instruction to step, which implements
			// every opcode.
			needStep = true
			goto out
		}

		// Fast retire for ops that cannot have advanced the page-generation
		// clock — everything except stores, which jump to retireStore below.
		pc = next
		ran++
		i++
		if i < len(blk.ins) && next == blk.spc[i] {
			continue
		}
		goto trans

	retireStore:
		pc = next
		ran++
		i++
		if as.Clock() != clock {
			// A store touched an executable page (or remapped memory):
			// everything cached — blocks, links, TLB heads — may be stale.
			goto out
		}
		if i < len(blk.ins) && next == blk.spc[i] {
			// Splice holds: fall through to the next cached instruction.
			// (Always true inside a basic block; in a superblock this is
			// the side-exit guard at every spliced boundary.)
			continue
		}

	trans:
		// Block/trace exit: transfer to next (== pc). Report the visit,
		// honour stop requests, then follow — or re-establish — the chain
		// link, recording the observed successor for trace formation.
		if onBlock != nil {
			onBlock(t, blk.ins[:i], 1)
			i = 0
		}
		if m.stopReq.Load() {
			blk.lastNext = pc
			goto out
		}
		if pc == blk.spc[0] {
			// Tight self-loop backedge: re-enter this block directly. It is
			// still valid — a store that could have invalidated it would
			// have bailed through the clock check — and the budget is
			// re-checked at the loop top, so quantum and perf precision
			// hold. lastNext deliberately keeps the loop's *exit* successor
			// so trace formation splices the continuation, not the backedge.
			i = 0
			continue
		}
		blk.lastNext = pc
		{
			var nxt *dblock
			if blk.l0pc == pc {
				nxt = blk.l0
			} else if blk.l1pc == pc && blk.l1 != nil {
				blk.l0pc, blk.l0, blk.l1pc, blk.l1 = blk.l1pc, blk.l1, blk.l0pc, blk.l0
				nxt = blk.l0
			}
			if nxt == nil || nxt.okClock != clock ||
				(!nxt.superDone && nxt.heat > superThreshold) {
				// Link miss, severed link, or a hot target that deserves a
				// promotion attempt: resolve through the cache.
				nxt = m.lookupBlock(pc)
				if nxt == nil || len(nxt.ins) == 0 {
					goto out
				}
				if blk.l0pc != pc {
					blk.l1pc, blk.l1 = blk.l0pc, blk.l0
				}
				blk.l0pc, blk.l0 = pc, nxt
			} else if nxt.heat <= superThreshold {
				nxt.heat++
			}
			blk = nxt
			i = 0
		}
	}

out:
	r.PC = pc
	r.Flags = flags
	t.Retired += uint64(ran)
	m.GlobalRetired += uint64(ran)
	if onBlock != nil && i > 0 {
		onBlock(t, blk.ins[:i], 1)
	}
	return ran, needStep

fault:
	r.PC = pc
	r.Flags = flags
	t.Retired += uint64(ran)
	m.GlobalRetired += uint64(ran)
	if onBlock != nil && i > 0 {
		onBlock(t, blk.ins[:i], 1)
	}
	m.handleFault(t, fErr)
	return ran, false
}
