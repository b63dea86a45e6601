package uarch

// BranchPredictor is a gshare predictor: a table of 2-bit saturating
// counters indexed by PC xor global history.
type BranchPredictor struct {
	table   []uint8
	mask    uint64
	history uint64
	bits    uint

	Lookups    uint64
	Mispredict uint64
}

// NewBranchPredictor builds a gshare predictor with 2^bits counters.
func NewBranchPredictor(bits uint) *BranchPredictor {
	return &BranchPredictor{
		table: make([]uint8, 1<<bits),
		mask:  1<<bits - 1,
		bits:  bits,
	}
}

// Predict records a resolved branch and reports whether the prediction was
// correct.
func (bp *BranchPredictor) Predict(pc uint64, taken bool) bool {
	bp.Lookups++
	idx := (pc>>3 ^ bp.history) & bp.mask
	ctr := bp.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		bp.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		bp.table[idx] = ctr - 1
	}
	bp.history = (bp.history<<1 | b2u(taken)) & bp.mask
	if pred != taken {
		bp.Mispredict++
		return false
	}
	return true
}

// MispredictRate returns mispredictions/lookups.
func (bp *BranchPredictor) MispredictRate() float64 {
	if bp.Lookups == 0 {
		return 0
	}
	return float64(bp.Mispredict) / float64(bp.Lookups)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pageShift is the TLB page size, 4 KiB, as an address shift.
const pageShift = 12

// TLB is a small fully-associative LRU translation buffer. Its entries
// are page numbers (with validBit) in recency order, MRU first.
type TLB struct {
	entries []uint64
	// WalkCycles is the page-walk penalty on miss.
	WalkCycles int

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given entry count and walk penalty.
func NewTLB(entries, walkCycles int) *TLB {
	return &TLB{
		entries:    make([]uint64, entries),
		WalkCycles: walkCycles,
	}
}

// Access looks up the page of addr, filling on miss. Returns the added
// latency (0 on hit, WalkCycles on miss).
func (t *TLB) Access(addr uint64) int {
	t.Accesses++
	if touchLRU(t.entries, addr>>pageShift|validBit) {
		return 0
	}
	t.Misses++
	return t.WalkCycles
}

// MissRate returns misses/accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
