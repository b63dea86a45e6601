package absint

import (
	"fmt"
	"math/bits"
	"sort"
)

// Val is the abstract value of one 64-bit register: the reduced product of
// an unsigned interval [Lo, Hi] (inclusive) and a known-bits domain (bit i
// of the concrete value equals bit i of Bits wherever bit i of Known is
// set). Every constructor re-normalizes so the two facets agree; either
// facet alone can prove a bound the other cannot (the interval survives
// addition, the known bits survive masking and wrapping), which is exactly
// the mix the generated startup code needs — limm'd pointers flow through
// addi-indexed copy loops and andi-aligned table walks.
type Val struct {
	Lo, Hi      uint64
	Known, Bits uint64
}

// Top is the unconstrained value.
func Top() Val { return Val{Lo: 0, Hi: ^uint64(0)} }

// Const is the singleton value v.
func Const(v uint64) Val { return Val{Lo: v, Hi: v, Known: ^uint64(0), Bits: v} }

// alignLo returns the smallest x >= lo with x&known == bset.
func alignLo(lo, known, bset uint64) (uint64, bool) {
	x := (lo &^ known) | bset
	if x >= lo {
		return x, true
	}
	// x < lo: a known bit forced a zero where lo has a one. Bump the lowest
	// free zero bit above the highest difference and clear the free bits
	// below it.
	d := uint(bits.Len64(lo^x) - 1)
	cand := ^known &^ x & (^uint64(0) << (d + 1))
	if cand == 0 {
		return 0, false
	}
	i := uint(bits.TrailingZeros64(cand))
	x |= 1 << i
	x &^= ^known & (1<<i - 1)
	return x, true
}

// alignHi returns the largest x <= hi with x&known == bset.
func alignHi(hi, known, bset uint64) (uint64, bool) {
	x := (hi &^ known) | bset
	if x <= hi {
		return x, true
	}
	// x > hi: clear the lowest free one bit above the highest difference and
	// set the free bits below it.
	d := uint(bits.Len64(hi^x) - 1)
	cand := ^known & x & (^uint64(0) << (d + 1))
	if cand == 0 {
		return 0, false
	}
	i := uint(bits.TrailingZeros64(cand))
	x &^= 1 << i
	x |= ^known & (1<<i - 1)
	return x, true
}

// norm tightens each facet with the other: the interval endpoints snap
// inward to the nearest values consistent with the known bits, and a
// singleton interval makes every bit known.
func (v Val) norm() Val {
	v.Bits &= v.Known
	lo, okLo := alignLo(v.Lo, v.Known, v.Bits)
	hi, okHi := alignHi(v.Hi, v.Known, v.Bits)
	if !okLo || !okHi || lo > hi {
		// The facets contradict (unreachable state); collapse to the
		// known-bits range rather than invent an empty interval.
		v.Lo, v.Hi = v.Bits, v.Bits|^v.Known
		return v
	}
	v.Lo, v.Hi = lo, hi
	if v.Lo == v.Hi {
		v.Known, v.Bits = ^uint64(0), v.Lo
	} else {
		// The common binary prefix of the endpoints holds for every value
		// between them.
		prefix := ^uint64(0) << uint(bits.Len64(v.Lo^v.Hi))
		v.Known |= prefix
		v.Bits |= v.Lo & prefix
	}
	return v
}

// IsConst reports the value as a constant when the abstraction pins it.
func (v Val) IsConst() (uint64, bool) {
	if v.Lo == v.Hi {
		return v.Lo, true
	}
	if v.Known == ^uint64(0) {
		return v.Bits, true
	}
	return 0, false
}

// kbAdd is known-bits addition of a+b plus the known carry-in c (0 or 1),
// a word at a time: the tristate-number addition of the Linux BPF verifier
// (tnum_add). sv is the sum with every unknown bit taken as 0, and sv plus
// both unknown masks the sum with every unknown bit taken as 1; a sum bit
// is known where the two agree and neither summand bit is unknown.
// Vishwanathan et al. (CGO 2022) prove it sound and maximally precise, so
// it gives the bit-serial full-adder result, in which a carry is known
// whenever two of a full adder's three inputs are known and agree.
func kbAdd(aK, aB, bK, bB, c uint64) (known, kbits uint64) {
	am, bm := ^aK, ^bK
	sv := aB&aK + bB&bK + c
	mu := ((sv + am + bm) ^ sv) | am | bm
	return ^mu, sv &^ mu
}

// Add abstracts 64-bit wrapping addition.
func (v Val) Add(o Val) Val {
	known, kbits := kbAdd(v.Known, v.Bits, o.Known, o.Bits, 0)
	lo, cl := bits.Add64(v.Lo, o.Lo, 0)
	hi, ch := bits.Add64(v.Hi, o.Hi, 0)
	if cl != ch {
		// The sum range straddles the 2^64 wrap; only the known bits
		// survive.
		return Val{Lo: 0, Hi: ^uint64(0), Known: known, Bits: kbits}.norm()
	}
	return Val{Lo: lo, Hi: hi, Known: known, Bits: kbits}.norm()
}

// AddConst abstracts addition of a (possibly negative, sign-extended)
// constant.
func (v Val) AddConst(c uint64) Val { return v.Add(Const(c)) }

// Sub abstracts 64-bit wrapping subtraction (via a + ^b + 1).
func (v Val) Sub(o Val) Val {
	known, kbits := kbAdd(v.Known, v.Bits, o.Known, ^o.Bits&o.Known, 1)
	lo, bl := bits.Sub64(v.Lo, o.Hi, 0)
	hi, bh := bits.Sub64(v.Hi, o.Lo, 0)
	if bl != bh {
		return Val{Lo: 0, Hi: ^uint64(0), Known: known, Bits: kbits}.norm()
	}
	return Val{Lo: lo, Hi: hi, Known: known, Bits: kbits}.norm()
}

// AndConst abstracts v & c: the c-cleared bits become known zero, and the
// result can exceed neither operand.
func (v Val) AndConst(c uint64) Val {
	return Val{
		Lo: 0, Hi: min64(v.Hi, c),
		Known: v.Known | ^c, Bits: v.Bits & c,
	}.norm()
}

// OrConst abstracts v | c: the c-set bits become known one.
func (v Val) OrConst(c uint64) Val {
	return Val{
		Lo: 0, Hi: ^uint64(0),
		Known: v.Known | c, Bits: (v.Bits | c) & (v.Known | c),
	}.norm()
}

// XorConst abstracts v ^ c: known bits stay known, flipped where c is set.
func (v Val) XorConst(c uint64) Val {
	return Val{Lo: 0, Hi: ^uint64(0), Known: v.Known, Bits: v.Bits ^ (c & v.Known)}.norm()
}

// ShlConst abstracts v << k (k already masked to 0..63).
func (v Val) ShlConst(k uint) Val {
	out := Val{Known: (v.Known << k) | (1<<k - 1), Bits: v.Bits << k}
	if v.Hi <= ^uint64(0)>>k {
		out.Lo, out.Hi = v.Lo<<k, v.Hi<<k
	} else {
		out.Lo, out.Hi = 0, ^uint64(0)
	}
	return out.norm()
}

// ShrConst abstracts v >> k (logical).
func (v Val) ShrConst(k uint) Val {
	hiKnown := ^uint64(0) << (64 - k) // vacated bits are known zero
	if k == 0 {
		hiKnown = 0
	}
	return Val{
		Lo: v.Lo >> k, Hi: v.Hi >> k,
		Known: (v.Known >> k) | hiKnown, Bits: v.Bits >> k,
	}.norm()
}

// Join is the lattice join (least upper bound): known bits survive only
// where both sides agree, and the interval is the hull.
func (v Val) Join(o Val) Val {
	known := v.Known & o.Known & ^(v.Bits ^ o.Bits)
	return Val{
		Lo: min64(v.Lo, o.Lo), Hi: max64(v.Hi, o.Hi),
		Known: known, Bits: v.Bits & known,
	}.norm()
}

// Meet is the lattice meet (greatest lower bound): both facts hold, so
// known bits union and the intervals intersect. An empty meet (callers
// only meet facts about the same concrete value, so emptiness signals an
// upstream over-collapse) degrades to the known-bits range via norm.
func (v Val) Meet(o Val) Val {
	known := v.Known | o.Known
	kbits := (v.Bits & v.Known) | (o.Bits &^ v.Known & o.Known)
	return Val{
		Lo: max64(v.Lo, o.Lo), Hi: min64(v.Hi, o.Hi),
		Known: known, Bits: kbits,
	}.norm()
}

// Widen joins and then pushes any still-moving interval bound outward to
// the next rung of the threshold ladder (th, ascending), falling back to
// the extreme the surviving known bits allow. Keeping the *stable* bound
// is what lets the copy loops in generated startup code retain their base
// address, and landing on thresholds mined from the code's own immediates
// is what lets a counted-down loop counter keep its floor instead of
// overshooting to zero and wrapping.
func (v Val) Widen(o Val, th []uint64) Val {
	j := v.Join(o)
	if j.Lo < v.Lo {
		lo := j.Bits
		i := sort.Search(len(th), func(i int) bool { return th[i] > j.Lo })
		if i > 0 && th[i-1] > lo {
			lo = th[i-1]
		}
		j.Lo = lo
	}
	if j.Hi > v.Hi {
		hi := j.Bits | ^j.Known
		i := sort.Search(len(th), func(i int) bool { return th[i] >= j.Hi })
		if i < len(th) && th[i] < hi {
			hi = th[i]
		}
		j.Hi = hi
	}
	return j.norm()
}

// NarrowNE refines v under the branch fact v != c; ok=false means the edge
// is infeasible.
func (v Val) NarrowNE(c uint64) (Val, bool) {
	if x, isC := v.IsConst(); isC {
		return v, x != c
	}
	if v.Lo == c {
		v.Lo++
	}
	if v.Hi == c {
		v.Hi--
	}
	return v.norm(), true
}

// NarrowEQ refines v under v == c.
func (v Val) NarrowEQ(c uint64) (Val, bool) {
	if c < v.Lo || c > v.Hi || c&v.Known != v.Bits {
		return v, false
	}
	return Const(c), true
}

// NarrowLT refines v under v < c (unsigned).
func (v Val) NarrowLT(c uint64) (Val, bool) {
	if c == 0 || v.Lo > c-1 {
		return v, false
	}
	if v.Hi > c-1 {
		v.Hi = c - 1
	}
	return v.norm(), true
}

// NarrowGE refines v under v >= c (unsigned).
func (v Val) NarrowGE(c uint64) (Val, bool) {
	if v.Hi < c {
		return v, false
	}
	if v.Lo < c {
		v.Lo = c
	}
	return v.norm(), true
}

// NarrowLE refines v under v <= c (unsigned).
func (v Val) NarrowLE(c uint64) (Val, bool) {
	if c == ^uint64(0) {
		return v, true
	}
	return v.NarrowLT(c + 1)
}

// NarrowGT refines v under v > c (unsigned).
func (v Val) NarrowGT(c uint64) (Val, bool) {
	if c == ^uint64(0) {
		return v, false
	}
	return v.NarrowGE(c + 1)
}

// String renders the value for findings: a constant as itself, anything
// else as its interval.
func (v Val) String() string {
	if c, ok := v.IsConst(); ok {
		return fmt.Sprintf("%#x", c)
	}
	return fmt.Sprintf("[%#x,%#x]", v.Lo, v.Hi)
}

// Eq reports abstract-state equality (fixpoint detection).
func (v Val) Eq(o Val) bool { return v == o }

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
