// Package store implements a content-addressed checkpoint store for
// pinballs, ELFies, and other pipeline artifacts.
//
// The paper's premise is that region checkpoints are *shareable,
// re-runnable artifacts* (§I, §V): a SPEC-scale study produces hundreds of
// them per benchmark, and they get archived, copied between teams, and
// re-simulated for years. The store gives those artifacts a durable home:
//
//	<root>/
//	  index.json                 persistent cache index: key -> entry
//	  objects/<id[:2]>/<id>/     one directory per content object
//	  tmp/                       staging area for atomic writes
//
// Every object is a set of named files (a pinball file set, an ELFie
// binary, a sysstate bundle, ...). Its identity is the SHA-256 over a
// canonical serialization of those files, so identical content stored
// under different cache keys deduplicates to one object directory, and any
// on-disk tampering is detectable by re-hashing. Writes are atomic: the
// object is staged under tmp/ and renamed into place, so a crashed writer
// never leaves a partially-visible object.
//
// The cache index maps logical keys (see Key) to object IDs. A pipeline
// re-run with the same recipe/seed/slice configuration finds its artifacts
// by key and skips the work that produced them.
package store

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// SchemaVersion is the store layout version, folded into every cache key so
// a layout change invalidates old entries instead of misreading them.
const SchemaVersion = 1

// ErrCorrupt marks store content that fails integrity verification: an
// object whose re-hash does not match its ID, a missing member file, or an
// unparsable index. Tools classify it as corrupt input (exit 2).
var ErrCorrupt = errors.New("store: corrupt")

// FileSet is one object's content: named files, as bytes.
type FileSet map[string][]byte

// Entry is one cache-index record.
type Entry struct {
	// Key is the logical cache key (see Key).
	Key string `json:"key"`
	// Kind labels what the object is ("region", "profile", ...).
	Kind string `json:"kind"`
	// Object is the content address: hex SHA-256 of the canonical file set.
	Object string `json:"object"`
	// Size is the total byte size of the object's files.
	Size int64 `json:"size"`
	// Files is the number of files in the object.
	Files int `json:"files"`
	// CreatedAt/LastUsed drive garbage collection.
	CreatedAt time.Time `json:"created_at"`
	LastUsed  time.Time `json:"last_used"`
}

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	root string

	mu  sync.Mutex
	idx map[string]*Entry // by Key
	// staging names tmp/ directories of in-flight writeObject calls in this
	// process, so a concurrent GC does not sweep a write out from under its
	// writer.
	staging map[string]bool
	// pending refcounts object IDs of in-flight Put/PutChunked calls: an
	// object can be on disk before the index entry referencing it lands, and
	// a concurrent GC must not treat it as an orphan in that window.
	pending map[string]int
	// deleted tombstones keys this handle removed (Delete, GC expiry) with
	// the removal time, so a cross-process index merge (see lock.go) does
	// not resurrect them from a stale on-disk copy — while a key another
	// process legitimately re-created after the delete (CreatedAt newer
	// than the tombstone) is adopted, not dropped forever.
	deleted map[string]time.Time
}

// Cache is the artifact-cache surface the pipeline consumes: a plain local
// Store satisfies it, and so does a registry pull-through cache that fills
// local misses from a remote store over HTTP. Code that takes a Cache works
// unchanged against either.
type Cache interface {
	Get(key string) (FileSet, *Entry, bool, error)
	Put(key, kind string, files FileSet) (*Entry, error)
	PutChunked(key, kind string, files FileSet, chunkSize int) (*Entry, error)
	Root() string
}

var _ Cache = (*Store)(nil)

// pin marks object IDs as in-flight; unpin releases them.
func (s *Store) pin(ids ...string) {
	s.mu.Lock()
	for _, id := range ids {
		s.pending[id]++
	}
	s.mu.Unlock()
}

func (s *Store) unpin(ids ...string) {
	s.mu.Lock()
	for _, id := range ids {
		if s.pending[id]--; s.pending[id] <= 0 {
			delete(s.pending, id)
		}
	}
	s.mu.Unlock()
}

// Open opens (creating if needed) a store rooted at dir and loads its
// persistent index.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"", "objects", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{
		root:    dir,
		idx:     make(map[string]*Entry),
		staging: make(map[string]bool),
		pending: make(map[string]int),
		deleted: make(map[string]time.Time),
	}
	data, err := os.ReadFile(s.indexPath())
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []*Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%w: index.json: %v", ErrCorrupt, err)
	}
	for _, e := range entries {
		s.idx[e.Key] = e
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) indexPath() string { return filepath.Join(s.root, "index.json") }

func (s *Store) objectDir(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id)
}

// ObjectID computes the content address of a file set: the hex SHA-256
// over a canonical serialization (files ordered by name, lengths framed).
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

// Put stores a file set under a cache key. Identical content deduplicates:
// if an object with the same content address already exists, no bytes are
// rewritten and the key simply references the existing object. The write is
// atomic (staged under tmp/, renamed into place).
func (s *Store) Put(key, kind string, files FileSet) (*Entry, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("store: refusing to put empty file set for key %s", key)
	}
	id := ObjectID(files)
	objDir := s.objectDir(id)
	// Pinned until the index entry below is saved: the on-disk object must
	// not look like an orphan to a concurrent GC in the meantime.
	s.pin(id)
	defer s.unpin(id)

	if _, err := os.Stat(objDir); os.IsNotExist(err) {
		if err := s.writeObject(objDir, files); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}

	var size int64
	for _, data := range files {
		size += int64(len(data))
	}
	now := time.Now().UTC()
	e := &Entry{
		Key: key, Kind: kind, Object: id,
		Size: size, Files: len(files),
		CreatedAt: now, LastUsed: now,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.idx[key]; ok {
		e.CreatedAt = old.CreatedAt
	}
	s.idx[key] = e
	// Re-creating a key this handle once deleted revokes the tombstone:
	// the new entry is the truth, not a resurrection to suppress.
	delete(s.deleted, key)
	if err := s.saveIndexLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// writeObject stages files in tmp/ and renames the staged directory to
// objDir. A concurrent writer of the same object wins harmlessly: content
// addressing guarantees both staged copies are byte-identical.
func (s *Store) writeObject(objDir string, files FileSet) error {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	base := "put-" + hex.EncodeToString(nonce[:])
	stage := filepath.Join(s.root, "tmp", base)
	// Register the staging dir before it exists on disk, so a concurrent GC
	// never observes it unregistered.
	s.mu.Lock()
	s.staging[base] = true
	s.mu.Unlock()
	defer func() {
		os.RemoveAll(stage)
		s.mu.Lock()
		delete(s.staging, base)
		s.mu.Unlock()
	}()
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		if name != filepath.Base(name) {
			return fmt.Errorf("store: invalid object file name %q", name)
		}
		if err := writeFileSync(filepath.Join(stage, name), data); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(objDir), 0o755); err != nil {
		return err
	}
	err := os.Rename(stage, objDir)
	if err != nil && (os.IsExist(err) || dirExists(objDir)) {
		return nil // lost a benign race to an identical object
	}
	return err
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// Get returns the file set cached under key, or ok=false on a miss. Every
// hit is integrity-checked: the object's content is re-hashed and must
// match its address, else ErrCorrupt. Hits refresh the entry's LastUsed.
func (s *Store) Get(key string) (FileSet, *Entry, bool, error) {
	files, e, ok, err := s.GetRaw(key)
	if !ok {
		return nil, nil, false, err
	}
	if files, err = s.resolveChunks(files); err != nil {
		return nil, nil, false, err
	}
	return files, e, true, nil
}

// readObject loads an object directory and verifies its content address.
func (s *Store) readObject(id string) (FileSet, error) {
	objDir := s.objectDir(id)
	entries, err := os.ReadDir(objDir)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: object %s missing", ErrCorrupt, shortID(id))
	}
	if err != nil {
		return nil, err
	}
	files := make(FileSet, len(entries))
	for _, ent := range entries {
		if ent.IsDir() {
			return nil, fmt.Errorf("%w: object %s contains a directory %q",
				ErrCorrupt, shortID(id), ent.Name())
		}
		data, err := os.ReadFile(filepath.Join(objDir, ent.Name()))
		if err != nil {
			return nil, err
		}
		files[ent.Name()] = data
	}
	if got := ObjectID(files); got != id {
		return nil, fmt.Errorf("%w: object %s re-hashes to %s (content tampered or damaged)",
			ErrCorrupt, shortID(id), shortID(got))
	}
	return files, nil
}

// Delete removes a cache entry. The underlying object survives if other
// entries still reference it; otherwise GC reclaims it.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[key]; !ok {
		return nil
	}
	delete(s.idx, key)
	s.deleted[key] = time.Now().UTC()
	return s.saveIndexLocked()
}

// Stat returns the index entry for key without reading the object — the
// cheap existence/ETag probe the registry answers HEAD requests from.
func (s *Store) Stat(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx[key]
	if !ok {
		return nil, false
	}
	cp := *e
	return &cp, true
}

// HasObject reports whether the content-addressed object id is present on
// disk. The registry's upload negotiation uses it to tell clients which
// chunks they can skip sending.
func (s *Store) HasObject(id string) bool {
	return ValidObjectID(id) && dirExists(s.objectDir(id))
}

// ValidObjectID accepts exactly the hex SHA-256 strings ObjectID produces.
// Everything that turns an externally-supplied ID into a filesystem path —
// the registry server, the registry client's pull stage, chunk manifests
// that crossed the network — must pass this gate, or a hostile id like
// "../../etc" becomes a path traversal.
func ValidObjectID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ReadObject loads and integrity-verifies the object with the given content
// address. Chunked members are NOT resolved: the caller gets the raw stored
// representation (a chunk object reads back as its single "chunk" member).
func (s *Store) ReadObject(id string) (FileSet, error) {
	if !ValidObjectID(id) {
		return nil, fmt.Errorf("%w: invalid object id %q", ErrCorrupt, shortID(id))
	}
	return s.readObject(id)
}

// GetRaw is Get without chunk resolution: the entry's top object exactly as
// stored, chunk manifest included. Push clients use it so an artifact's
// stored representation — and therefore its content address — survives the
// network unchanged.
func (s *Store) GetRaw(key string) (FileSet, *Entry, bool, error) {
	s.mu.Lock()
	e, ok := s.idx[key]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false, nil
	}
	files, err := s.readObject(e.Object)
	if err != nil {
		return nil, nil, false, err
	}
	s.mu.Lock()
	e.LastUsed = time.Now().UTC()
	err = s.saveIndexLocked()
	cp := *e
	s.mu.Unlock()
	if err != nil {
		return nil, nil, false, err
	}
	return files, &cp, true, nil
}

// Entries returns a snapshot of the index, sorted by key.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.idx))
	for _, e := range s.idx {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// saveIndexLocked atomically persists the index (caller holds s.mu). The
// save is a cross-process read-merge-write under <root>/index.lock, so two
// processes writing the same store never lose each other's entries (see
// lock.go).
func (s *Store) saveIndexLocked() error {
	release, err := s.lockIndex()
	if err != nil {
		return err
	}
	defer release()
	if err := s.mergeDiskLocked(); err != nil {
		return err
	}
	entries := make([]*Entry, 0, len(s.idx))
	for _, e := range s.idx {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.indexPath() + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	return os.Rename(tmp, s.indexPath())
}

// writeFileSync is os.WriteFile plus an fsync before close. Every file that
// an os.Rename later publishes must go through this: rename is atomic in the
// namespace but says nothing about data blocks, so a crash between a plain
// write and the journal flush can leave a fully-named object with zeroed
// content.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
