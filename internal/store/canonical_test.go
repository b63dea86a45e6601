package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"path/filepath"
	"sort"
	"testing"
)

// canonical serializes a file set in the form ObjectID hashes: per member
// in name order, name length, name, data length, data.
func canonical(files FileSet) []byte {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		b = appendFrame(b, name, files[name])
	}
	return b
}

func appendFrame(b []byte, name string, data []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(data)))
	return append(b, data...)
}

// rawFrame frames one member with lengths that need not match its bytes.
func rawFrame(nameLen uint64, name string, dataLen uint64, data string) []byte {
	b := binary.LittleEndian.AppendUint64(nil, nameLen)
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint64(b, dataLen)
	return append(b, data...)
}

// TestReadCanonicalIsTheHashedForm: the one-pass read returns exactly the
// bytes the object ID hashes, and parses back to the stored file set.
func TestReadCanonicalIsTheHashedForm(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files := FileSet{"b.bin": bytes.Repeat([]byte{7}, 5000), "a.json": []byte(`{}`), "empty": nil}
	e, err := s.Put("k", "test", files)
	if err != nil {
		t.Fatal(err)
	}
	body, err := s.ReadCanonical(e.Object)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, canonical(files)) {
		t.Fatal("ReadCanonical differs from the canonical serialization")
	}
	got, err := ParseCanonical(body)
	if err != nil || ObjectID(got) != e.Object || len(got) != len(files) {
		t.Fatalf("parsed back to %d members (err %v)", len(got), err)
	}
	// An append to a parsed member must not overwrite the next frame.
	_ = append(got["a.json"], "XXXXXXXXXXXXXXXXXXXXXXXX"...)
	if !bytes.Equal(body, canonical(files)) {
		t.Fatal("appending to a parsed member overwrote the body")
	}
}

// TestParseCanonicalRejectsHostileFrames: every body no object serializes
// to is refused as ErrCorrupt — a registry client parses bodies a remote
// server chose.
func TestParseCanonicalRejectsHostileFrames(t *testing.T) {
	ok := appendFrame(nil, "a", []byte("1"))
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"path in name", appendFrame(nil, "x/../../escape", []byte("1"))},
		{"parent name", appendFrame(nil, "..", []byte("1"))},
		{"dot name", appendFrame(nil, ".", []byte("1"))},
		{"empty name", appendFrame(nil, "", []byte("1"))},
		{"unsorted names", appendFrame(appendFrame(nil, "b", nil), "a", nil)},
		{"duplicate names", appendFrame(append([]byte(nil), ok...), "a", []byte("2"))},
		{"name length past end", rawFrame(100, "a", 1, "1")},
		{"data length past end", rawFrame(1, "a", 10, "abc")},
		{"negative data length", rawFrame(1, "a", ^uint64(0), "data")},
		{"short trailing bytes", append(append([]byte(nil), ok...), 1, 2, 3)},
		{"long trailing bytes", append(append([]byte(nil), ok...), bytes.Repeat([]byte{0xee}, 20)...)},
		{"missing data length", append(binary.LittleEndian.AppendUint64(nil, 1), 'a')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if files, err := ParseCanonical(tc.body); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("accepted %d members, err %v", len(files), err)
			}
		})
	}
	if _, err := ParseCanonical(ok); err != nil {
		t.Fatalf("well-formed body refused: %v", err)
	}
}

// TestPutAssembledRefusesMismatchBeforeWriting: a commit under an expected
// ID that the top does not hash to leaves no object, chunk or entry behind.
func TestPutAssembledRefusesMismatchBeforeWriting(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	top, chunks, err := ChunkPlan(FileSet{"mem": bytes.Repeat([]byte("page"), 4096)}, 0)
	if err != nil || len(chunks) == 0 {
		t.Fatalf("plan: %d chunks, %v", len(chunks), err)
	}
	wrong := ObjectID(FileSet{"other": []byte("x")})
	if _, err := s.PutAssembled("k", "test", wrong, top, chunks); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched commit: %v", err)
	}
	objs, _ := filepath.Glob(filepath.Join(s.Root(), "objects", "*", "*"))
	if len(objs) != 0 || len(s.Entries()) != 0 {
		t.Fatalf("refused commit wrote %d objects, %d entries", len(objs), len(s.Entries()))
	}
	e, err := s.PutAssembled("k", "test", ObjectID(top), top, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok, err := s.Get("k"); !ok || err != nil || !bytes.Equal(got["mem"], bytes.Repeat([]byte("page"), 4096)) {
		t.Fatalf("committed %s does not read back: ok=%v err=%v", e.Object, ok, err)
	}
}

// FuzzCanonical: the parser never panics, and any body it accepts is the
// canonical form of what it parsed — it re-serializes to itself and its
// SHA-256 is the parsed set's ObjectID.
func FuzzCanonical(f *testing.F) {
	f.Add(canonical(FileSet{"a": []byte("1"), "b.bin": bytes.Repeat([]byte{9}, 40)}))
	f.Add(canonical(FileSet{"chunks.json": []byte(`{"version":1}`), "x": nil}))
	f.Add(appendFrame(nil, "..", nil))
	f.Add(binary.LittleEndian.AppendUint64(nil, ^uint64(0)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		files, err := ParseCanonical(body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		if !bytes.Equal(canonical(files), body) {
			t.Fatal("accepted body does not re-serialize to itself")
		}
		sum := sha256.Sum256(body)
		if hex.EncodeToString(sum[:]) != ObjectID(files) {
			t.Fatal("accepted body's SHA-256 is not the ObjectID of its members")
		}
		for name := range files {
			if !validMemberName(name) {
				t.Fatalf("accepted unsafe name %q", name)
			}
		}
	})
}
