package pinball

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzMembers is the file set FuzzPinballRead mutates, indexed by the fuzzed
// file selector.
var fuzzMembers = []string{
	".global.log", ".text", ".0.reg", ".1.reg", ".sel", ".race",
}

// fuzzImageLimit is the image bound FuzzPinballRead parses .text with.
const fuzzImageLimit = 16 << 20

// FuzzPinballRead corrupts one file of a valid pinball — truncation or a
// bit-flip at an arbitrary position — and asserts that Read never panics and
// fails only through the typed error taxonomy. Reading corrupt checkpoints
// is the integrity layer's whole job, so any other outcome is a bug.
func FuzzPinballRead(f *testing.F) {
	src := f.TempDir()
	if err := samplePinball().Save(src); err != nil {
		f.Fatal(err)
	}
	pristine := make(map[string][]byte, len(fuzzMembers))
	for _, suffix := range fuzzMembers {
		data, err := os.ReadFile(filepath.Join(src, "sample"+suffix))
		if err != nil {
			f.Fatal(err)
		}
		pristine[suffix] = data
	}

	f.Add(uint8(0), uint32(10), uint8(0), true)  // truncate global.log
	f.Add(uint8(1), uint32(30), uint8(3), false) // flip a .text header bit
	f.Add(uint8(2), uint32(5), uint8(7), false)  // flip a .reg value bit
	f.Add(uint8(4), uint32(0), uint8(0), true)   // empty the .sel file
	f.Add(uint8(5), uint32(11), uint8(1), false) // flip a .race schedule bit
	// The sample's .text opens with a two-page zero run (header bytes
	// 0-19, no data) followed by a data record (header bytes 20-39).
	f.Add(uint8(1), uint32(16), uint8(0), false) // clear the zero-run flag
	f.Add(uint8(1), uint32(9), uint8(4), false)  // grow the zero run by a page
	f.Add(uint8(1), uint32(8), uint8(3), false)  // zero run off a page multiple
	f.Add(uint8(1), uint32(36), uint8(1), false) // data record as a continuation
	f.Add(uint8(1), uint32(18), uint8(0), true)  // cut the zero-run header short

	f.Fuzz(func(t *testing.T, fileSel uint8, pos uint32, bit uint8, truncate bool) {
		suffix := fuzzMembers[int(fileSel)%len(fuzzMembers)]
		orig := pristine[suffix]

		var corrupt []byte
		if truncate {
			if len(orig) == 0 {
				t.Skip()
			}
			corrupt = orig[:int(pos)%len(orig)]
		} else {
			if len(orig) == 0 {
				t.Skip()
			}
			corrupt = append([]byte(nil), orig...)
			corrupt[int(pos)%len(corrupt)] ^= 1 << (bit % 8)
		}

		dir := t.TempDir()
		for _, s := range fuzzMembers {
			data := pristine[s]
			if s == suffix {
				data = corrupt
			}
			if err := os.WriteFile(filepath.Join(dir, "sample"+s), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		if suffix == ".text" {
			// The manifest catches every change to .text; parse the
			// corrupted bytes as if their CRC matched too, so the record
			// checks themselves are fuzzed. The small limit keeps a
			// flipped zero-run length from allocating much.
			var p Pinball
			err := p.loadText(corrupt, FormatVersion, fuzzImageLimit)
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped error from corrupted .text records: %v", err)
			}
			if n := p.ImageBytes(); err == nil && n > fuzzImageLimit {
				t.Fatalf(".text expanded to %d bytes, past the %d limit", n, fuzzImageLimit)
			}
		}

		pb, err := Load(dir, "sample")
		if err == nil {
			// A flip can land in JSON whitespace or a value that still
			// parses; acceptable only if the CRC still matched, meaning the
			// global.log itself was the mutated file (its digest covers the
			// others, not itself).
			if pb == nil {
				t.Fatal("nil pinball with nil error")
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrVersionMismatch) && !os.IsNotExist(err) {
			t.Fatalf("untyped error from corrupted %s: %v", suffix, err)
		}
	})
}
