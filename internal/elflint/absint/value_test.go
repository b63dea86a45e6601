package absint

import (
	"math/rand"
	"testing"
)

// kbSum is the bit-serial reference for kbAdd: a sum bit is known when both
// summand bits and the incoming carry are; the carry-out is known whenever
// two of the three inputs to the full adder are known and agree (so
// knowledge recovers across known-zero runs).
func kbSum(aK, aB, bK, bB uint64, c uint64) (uint64, uint64) {
	var resK, resB uint64
	cK, cV := true, c&1
	for i := uint(0); i < 64; i++ {
		ak, av := aK>>i&1 == 1, aB>>i&1
		bk, bv := bK>>i&1 == 1, bB>>i&1
		if ak && bk && cK {
			resK |= 1 << i
			resB |= (av ^ bv ^ cV) << i
		}
		switch {
		case ak && bk && av == bv:
			cK, cV = true, av
		case ak && cK && av == cV:
			cK, cV = true, av
		case bk && cK && bv == cV:
			cK, cV = true, bv
		default:
			cK = false
		}
	}
	return resK, resB
}

// TestKbAddMatchesBitSerial checks the word-parallel known-bits addition
// against the bit-serial full-adder reference, with both carry-ins, on
// random operands and on structured masks: all known, all unknown, known
// prefixes and suffixes, and single known or unknown bits. Bits outside a
// mask carry garbage, which neither version may read.
func TestKbAddMatchesBitSerial(t *testing.T) {
	masks := []uint64{0, ^uint64(0), 1, 1 << 63, ^uint64(1), ^uint64(1 << 63)}
	for i := uint(1); i < 64; i += 7 {
		masks = append(masks, ^uint64(0)<<i, ^uint64(0)>>i, 1<<i, ^uint64(1<<i))
	}
	rng := rand.New(rand.NewSource(1))
	check := func(aK, aB, bK, bB, c uint64) {
		t.Helper()
		wantK, wantB := kbSum(aK, aB, bK, bB, c)
		gotK, gotB := kbAdd(aK, aB, bK, bB, c)
		if gotK != wantK || gotB != wantB {
			t.Fatalf("kbAdd(%#x,%#x, %#x,%#x, c=%d) = (%#x,%#x), bit-serial (%#x,%#x)",
				aK, aB, bK, bB, c, gotK, gotB, wantK, wantB)
		}
	}
	for _, aK := range masks {
		for _, bK := range masks {
			for n := 0; n < 20; n++ {
				check(aK, rng.Uint64(), bK, rng.Uint64(), uint64(n&1))
			}
		}
	}
	for n := 0; n < 200_000; n++ {
		// Sparse, dense and uniform masks, so long known and unknown runs
		// both occur.
		aK, bK := rng.Uint64(), rng.Uint64()
		switch n % 3 {
		case 1:
			aK, bK = aK|rng.Uint64(), bK|rng.Uint64()
		case 2:
			aK, bK = aK&rng.Uint64(), bK&rng.Uint64()
		}
		check(aK, rng.Uint64(), bK, rng.Uint64(), uint64(n&1))
	}
}
