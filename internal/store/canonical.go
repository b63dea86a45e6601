package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The canonical form of an object is the byte stream its content address
// hashes: for each member in name order, an 8-byte little-endian name
// length, the name, an 8-byte little-endian data length, then the data.
// The frames make it unambiguous (no two file sets serialize alike), so the
// form doubles as the object's wire representation: the registry sends an
// object as exactly these bytes, and the receiver verifies them with one
// SHA-256 pass.

// frameLen is the framing overhead of one member: two 8-byte lengths.
const frameLen = 16

// ObjectID computes the content address of a file set: the hex SHA-256 of
// its canonical form. Members are fed to the hasher in place; the canonical
// bytes are never built.
func ObjectID(files FileSet) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var frame [8]byte
	for _, name := range names {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(name)))
		h.Write(frame[:])
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(frame[:], uint64(len(files[name])))
		h.Write(frame[:])
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validMemberName accepts the names an object directory can hold: one plain
// path element, never "." or "..". Names that arrive over the network
// become file names under a staging directory, so this is a traversal gate.
func validMemberName(name string) bool {
	return name != "" && name != "." && name != ".." && name == filepath.Base(name)
}

// ReadCanonical returns the stored object id in its canonical form, read
// from disk in one pass straight into a buffer of the exact size and
// verified with one hash before it is returned.
func (s *Store) ReadCanonical(id string) ([]byte, error) {
	if !ValidObjectID(id) {
		return nil, fmt.Errorf("%w: invalid object id %q", ErrCorrupt, shortID(id))
	}
	objDir := s.objectDir(id)
	// ReadDir sorts by name, which is the canonical member order.
	ents, err := os.ReadDir(objDir)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: object %s missing", ErrCorrupt, shortID(id))
	}
	if err != nil {
		return nil, err
	}
	sizes := make([]int64, len(ents))
	var total int64
	for i, ent := range ents {
		if ent.IsDir() {
			return nil, fmt.Errorf("%w: object %s contains a directory %q",
				ErrCorrupt, shortID(id), ent.Name())
		}
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		sizes[i] = info.Size()
		total += frameLen + int64(len(ent.Name())) + sizes[i]
	}
	buf := make([]byte, total)
	off := 0
	for i, ent := range ents {
		name := ent.Name()
		binary.LittleEndian.PutUint64(buf[off:], uint64(len(name)))
		off += 8
		off += copy(buf[off:], name)
		binary.LittleEndian.PutUint64(buf[off:], uint64(sizes[i]))
		off += 8
		err := readFull(filepath.Join(objDir, name), buf[off:off+int(sizes[i])])
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: object %s member %s shrank while read", ErrCorrupt, shortID(id), name)
		}
		if err != nil {
			return nil, err
		}
		off += int(sizes[i])
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != id {
		return nil, fmt.Errorf("%w: object %s re-hashes to %s (content tampered or damaged)",
			ErrCorrupt, shortID(id), shortID(got))
	}
	return buf, nil
}

// readFull fills dst from the start of the file at path.
func readFull(path string, dst []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.ReadFull(f, dst)
	return err
}

// ParseCanonical splits a canonical-form body back into its file set. The
// members alias body (capacity-capped, so an append never overwrites the
// next frame). It refuses, as ErrCorrupt, every body no object serializes
// to: an empty body, a name that is not one plain path element, names out
// of order or repeated, a length that runs past the end of the body, and
// bytes after the last member. It does not hash: the caller checks the
// content address, typically by committing under an expected ID.
func ParseCanonical(body []byte) (FileSet, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty object body", ErrCorrupt)
	}
	files := make(FileSet)
	prev := ""
	for off := 0; off < len(body); {
		name, next, err := field(body, off)
		if err != nil {
			return nil, err
		}
		if !validMemberName(string(name)) {
			return nil, fmt.Errorf("%w: unsafe member name %q", ErrCorrupt, name)
		}
		if len(files) > 0 && string(name) <= prev {
			return nil, fmt.Errorf("%w: member %q out of order or repeated after %q", ErrCorrupt, name, prev)
		}
		data, next, err := field(body, next)
		if err != nil {
			return nil, fmt.Errorf("member %s: %w", name, err)
		}
		prev = string(name)
		files[prev] = data
		off = next
	}
	return files, nil
}

// field reads one length-framed field at off and returns it with the offset
// just past it.
func field(body []byte, off int) ([]byte, int, error) {
	if len(body)-off < 8 {
		return nil, 0, fmt.Errorf("%w: truncated frame (%d bytes) at offset %d", ErrCorrupt, len(body)-off, off)
	}
	n := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if n > uint64(len(body)-off) {
		return nil, 0, fmt.Errorf("%w: length %d at offset %d runs past the %d-byte body",
			ErrCorrupt, n, off-8, len(body))
	}
	end := off + int(n)
	return body[off:end:end], end, nil
}
