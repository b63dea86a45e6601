package pinball

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	"elfie/internal/mem"
)

// textRec appends one .text record: its header and then data.
func textRec(out []byte, addr uint64, n, prot int, flags uint32, data []byte) []byte {
	out = binary.LittleEndian.AppendUint64(out, addr)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(prot))
	out = binary.LittleEndian.AppendUint32(out, flags)
	return append(out, data...)
}

// v3Text encodes pages as a format-version-3 writer did: one record per
// extent, every byte stored, and a flags word of 0.
func v3Text(pages []Page) []byte {
	var out []byte
	for _, pg := range pages {
		out = textRec(out, pg.Addr, len(pg.Data), pg.Prot, 0, pg.Data)
	}
	return out
}

// withText returns pb's file set with its .text member replaced by text
// and the global.log restamped as format version, its manifest matching.
func withText(t *testing.T, pb *Pinball, text []byte, version int) map[string][]byte {
	t.Helper()
	files, err := pb.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	files[pb.Name+".text"] = text
	var meta Meta
	if err := json.Unmarshal(files[pb.Name+".global.log"], &meta); err != nil {
		t.Fatal(err)
	}
	meta.Version, meta.Manifest.FormatVersion = version, version
	meta.Manifest.Files[pb.Name+".text"] = digest(text)
	if files[pb.Name+".global.log"], err = json.Marshal(&meta); err != nil {
		t.Fatal(err)
	}
	return files
}

// samePages fails unless got is want extent for extent, byte for byte.
func samePages(t *testing.T, got, want []Page) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d extents back, wrote %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Addr != w.Addr || g.Prot != w.Prot || !bytes.Equal(g.Data, w.Data) {
			t.Errorf("extent %d: got %#x prot %d, %d bytes; wrote %#x prot %d, %d bytes",
				i, g.Addr, g.Prot, len(g.Data), w.Addr, w.Prot, len(w.Data))
		}
	}
}

// pagesOf returns n pages of zeros in which each page listed in nonzero
// holds one non-zero byte.
func pagesOf(n int, nonzero ...int) []byte {
	b := make([]byte, n*mem.PageSize)
	for _, i := range nonzero {
		b[i*mem.PageSize+7] = byte(i + 1)
	}
	return b
}

// TestZeroRunRoundTrip checks that the writer stores each run of zero
// pages as a record without bytes, and that the reader rebuilds exactly
// the extent list it was given.
func TestZeroRunRoundTrip(t *testing.T) {
	const P = mem.PageSize
	cases := []struct {
		name      string
		pages     []Page
		records   int // .text records written
		dataBytes int // bytes stored after the headers
	}{
		{"zero run at start", []Page{{0x10000, 3, pagesOf(3, 2)}}, 2, P},
		{"zero run in middle", []Page{{0x10000, 3, pagesOf(4, 0, 3)}}, 3, 2 * P},
		{"zero run at end", []Page{{0x10000, 3, pagesOf(3, 0)}}, 2, P},
		{"all-zero extent", []Page{{0x10000, 5, pagesOf(4)}}, 1, 0},
		{"empty extent", []Page{{0x10000, 3, nil}, {0x20000, 3, pagesOf(1, 0)}}, 2, P},
		{"short final page", []Page{{0x10000, 3, make([]byte, P+100)}}, 2, 100},
		// Adjacent extents with one protection that were never merged
		// (as in a checkpoint pinball) stay separate, even where a zero
		// run ends one and starts the next.
		{"unmerged adjacent extents", []Page{
			{0x10000, 3, pagesOf(2, 0)}, {0x12000, 3, pagesOf(2, 1)}, {0x14000, 3, pagesOf(1)},
		}, 5, 2 * P},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pb := samplePinball()
			pb.Pages = tc.pages
			files, err := pb.FileSet()
			if err != nil {
				t.Fatal(err)
			}
			if n, want := len(files["sample.text"]), tc.records*textHeader+tc.dataBytes; n != want {
				t.Errorf(".text is %d bytes, want %d records and %d data bytes (%d)",
					n, tc.records, tc.dataBytes, want)
			}
			back, err := ReadFileSet("sample", files, ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			samePages(t, back.Pages, tc.pages)
		})
	}
}

// TestV3TextStillLoads reads a file set whose .text a version-3 writer
// produced, every byte stored.
func TestV3TextStillLoads(t *testing.T) {
	pb := samplePinball()
	pb.Pages = append(pb.Pages, Page{Addr: 0x700000, Prot: 3, Data: pagesOf(3, 1)})
	back, err := ReadFileSet("sample", withText(t, pb, v3Text(pb.Pages), 3), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePages(t, back.Pages, pb.Pages)
}

// TestTextRecordChecks feeds the reader .text members whose CRC matches
// but whose records are inconsistent; each must fail as ErrCorrupt.
func TestTextRecordChecks(t *testing.T) {
	const P = mem.PageSize
	data := pagesOf(1, 0)
	zeroExtent := samplePinball()
	zeroExtent.Pages = []Page{{Addr: 0x10000, Prot: 3, Data: pagesOf(1)}}
	v4, err := zeroExtent.FileSet()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		version int
		text    []byte
	}{
		{"flags before version 4", 3, v4["sample.text"]},
		{"unknown flag", 4, textRec(nil, 0x10000, P, 3, 1<<2, data)},
		{"zero run not a page multiple", 4, textRec(nil, 0x10000, 100, 3, recZero, nil)},
		{"empty zero run", 4, textRec(nil, 0x10000, 0, 3, recZero, nil)},
		{"continuation first", 4, textRec(nil, 0x10000, P, 3, recCont|recZero, nil)},
		{"continuation elsewhere", 4, textRec(textRec(nil, 0x10000, P, 3, 0, data),
			0x12000, P, 3, recCont|recZero, nil)},
		{"continuation changes protection", 4, textRec(textRec(nil, 0x10000, P, 3, 0, data),
			0x11000, P, 5, recCont|recZero, nil)},
		{"image past the limit", 4, textRec(nil, 0x10000, maxImageBytes+P, 3, recZero, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFileSet("sample", withText(t, samplePinball(), tc.text, tc.version), ReadOptions{})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("got %v, want ErrCorrupt", err)
			}
		})
	}
}
