package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"elfie/internal/core"
	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/pinball"
)

// Stats summarizes a store: logical bytes referenced by entries vs physical
// bytes on disk, so the deduplication win is visible. Chunk objects are
// attributed to the kinds that reference them — a checkpoint-heavy store's
// per-kind sizes include the pages its checkpoints actually pin.
type Stats struct {
	Entries int
	// Objects counts top-level objects; ChunkObjects counts the page-chunk
	// objects referenced by their manifests (each unique chunk once).
	Objects      int
	ChunkObjects int
	// Bytes is the physical on-disk size of all referenced objects, chunk
	// objects included, each counted once however many entries share it.
	Bytes int64
	// LogicalBytes is the sum over entries of the fully reassembled artifact
	// size — what the store would hold with no dedup at all.
	LogicalBytes int64
	// DedupSaved is LogicalBytes - Bytes: what content addressing and page
	// chunking avoided storing twice.
	DedupSaved int64
	// DedupRatio is LogicalBytes / Bytes (1.0 = no sharing).
	DedupRatio float64
	// Kinds counts entries by kind; KindBytes is each kind's logical size,
	// chunked members attributed to the referencing kind.
	Kinds     map[string]int
	KindBytes map[string]int64
}

// Stats computes store statistics. Per-entry logical sizes come from the
// chunk manifests, so shared checkpoint pages count toward every checkpoint
// that references them (logical) but only once on disk (physical).
func (s *Store) Stats() (Stats, error) {
	st := Stats{Kinds: make(map[string]int), KindBytes: make(map[string]int64)}
	entries := s.Entries()
	tops := make(map[string]bool)
	chunks := make(map[string]bool)
	for i := range entries {
		e := &entries[i]
		st.Entries++
		st.Kinds[e.Kind]++
		logical := s.LogicalSize(e)
		st.KindBytes[e.Kind] += logical
		st.LogicalBytes += logical
		if !tops[e.Object] {
			tops[e.Object] = true
			st.Bytes += dirSize(s.objectDir(e.Object))
		}
		for _, cid := range s.chunkRefs(e.Object) {
			if !chunks[cid] {
				chunks[cid] = true
				st.Bytes += dirSize(s.objectDir(cid))
			}
		}
	}
	st.Objects = len(tops)
	st.ChunkObjects = len(chunks)
	st.DedupSaved = st.LogicalBytes - st.Bytes
	if st.Bytes > 0 {
		st.DedupRatio = float64(st.LogicalBytes) / float64(st.Bytes)
	}
	return st, nil
}

// LogicalSize returns the entry's fully reassembled artifact size: its
// inline top members plus the manifest sizes of chunked members. For an
// unchunked entry this equals Entry.Size.
func (s *Store) LogicalSize(e *Entry) int64 {
	size := e.Size
	mdata, err := os.ReadFile(filepath.Join(s.objectDir(e.Object), chunkManifestName))
	if err != nil {
		return size
	}
	var man chunkManifest
	if json.Unmarshal(mdata, &man) != nil {
		return size
	}
	// The manifest member itself is bookkeeping, not artifact content; the
	// chunked members it describes are.
	size -= int64(len(mdata))
	for _, m := range man.Members {
		size += m.Size
	}
	return size
}

// VerifyProblem is one integrity failure found by Verify.
type VerifyProblem struct {
	Key    string // empty for orphan objects
	Object string
	Err    error
}

// VerifyReport is the result of a full integrity scan.
type VerifyReport struct {
	Checked  int
	Pinballs int
	// Unverified counts legacy pinballs that loaded without a CRC
	// manifest (pre-manifest format): intact as far as we can tell, but
	// not checkable.
	Unverified int
	// Linted counts cached ELFies put through the static verifier
	// (VerifyOptions.Lint).
	Linted int
	// Chunked counts objects whose chunked members were reassembled and
	// chunk-verified during the scan (PutChunked storage).
	Chunked int
	// Checkpoints counts mid-run checkpoint pinballs that passed semantic
	// validation (pinball.ValidateCheckpoint).
	Checkpoints int
	Problems    []VerifyProblem
}

// OK reports whether the scan found no problems.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// VerifyOptions selects how deep a store scan goes.
type VerifyOptions struct {
	// Lint runs the elflint static verifier over every cached ELFie
	// (region objects), cross-checked against the pinball and restore map
	// stored beside it. The pipeline lints before it stores, so a finding
	// here means the artifact rotted — or was written by an older,
	// less-strict pipeline.
	Lint bool
	// KeyPrefix, when non-empty, restricts the scan to entries whose key
	// starts with it — how the registry verifies one tenant's namespace
	// without touching the others.
	KeyPrefix string
}

// Verify re-hashes every referenced object against its content address and,
// for objects that embed a pinball file set, additionally verifies the
// pinball's own CRC32 integrity manifest by loading it — the same check the
// pipeline applies, so store rot and pipeline rot are caught by one
// mechanism.
func (s *Store) Verify() (*VerifyReport, error) {
	return s.VerifyWith(VerifyOptions{})
}

// VerifyWith is Verify with options; see VerifyOptions.
func (s *Store) VerifyWith(opts VerifyOptions) (*VerifyReport, error) {
	rep := &VerifyReport{}
	for _, e := range s.Entries() {
		if opts.KeyPrefix != "" && !strings.HasPrefix(e.Key, opts.KeyPrefix) {
			continue
		}
		rep.Checked++
		files, err := s.ReadObject(e.Object)
		if err != nil {
			rep.Problems = append(rep.Problems, VerifyProblem{Key: e.Key, Object: e.Object, Err: err})
			continue
		}
		if _, chunked := files[chunkManifestName]; chunked {
			if files, err = s.Resolve(files); err != nil {
				rep.Problems = append(rep.Problems, VerifyProblem{Key: e.Key, Object: e.Object, Err: err})
				continue
			}
			rep.Chunked++
		}
		var pb *pinball.Pinball
		for fname := range files {
			name, ok := strings.CutSuffix(fname, ".global.log")
			if !ok {
				continue
			}
			rep.Pinballs++
			pb, err = pinball.ReadFileSet(name, files, pinball.ReadOptions{})
			if err != nil {
				pb = nil
				rep.Problems = append(rep.Problems, VerifyProblem{
					Key: e.Key, Object: e.Object,
					Err: fmt.Errorf("pinball %s: %w", name, err),
				})
				continue
			}
			if pb.Unverified {
				rep.Unverified++
			}
			// Mid-run checkpoints get the semantic validation the harness
			// applies before resuming one: a checkpoint that passes here is a
			// checkpoint a crashed job can restart from.
			if pb.Meta.Checkpoint != nil {
				if err := pb.ValidateCheckpoint(); err != nil {
					rep.Problems = append(rep.Problems, VerifyProblem{
						Key: e.Key, Object: e.Object,
						Err: fmt.Errorf("checkpoint %s: %w", name, err),
					})
				} else {
					rep.Checkpoints++
				}
			}
		}
		if opts.Lint {
			if err := lintObject(files, pb); err != nil {
				rep.Problems = append(rep.Problems, VerifyProblem{Key: e.Key, Object: e.Object, Err: err})
			} else if _, hasELFie := files["elfie.bin"]; hasELFie {
				rep.Linted++
			}
		}
	}
	return rep, nil
}

// lintObject statically verifies a region object's ELFie against the
// pinball and restore map cached beside it. Objects without an ELFie member
// (profiles, bare pinballs) pass vacuously.
func lintObject(files map[string][]byte, pb *pinball.Pinball) error {
	raw, ok := files["elfie.bin"]
	if !ok {
		return nil
	}
	exe, err := elfobj.Read(raw)
	if err != nil {
		return fmt.Errorf("elfie.bin: %v", err)
	}
	lintOpts := elflint.Options{Pinball: pb, Semantic: true}
	if rm, ok := files["restoremap.json"]; ok {
		m, err := core.ParseRestoreMap(rm)
		if err != nil {
			return fmt.Errorf("restoremap.json: %v", err)
		}
		lintOpts.Restore = m
	}
	lrep, err := elflint.Lint(exe, lintOpts)
	if err != nil {
		return fmt.Errorf("lint: %v", err)
	}
	if errs := lrep.Errors(); errs > 0 {
		for _, f := range lrep.Findings {
			if f.Severity >= elflint.SevError {
				return fmt.Errorf("lint: %d findings, first: %s", errs, f)
			}
		}
	}
	return nil
}

// GCOptions configures garbage collection.
type GCOptions struct {
	// MaxAge, when positive, expires index entries whose LastUsed is older
	// than this.
	MaxAge time.Duration
	// TmpGrace is how old a staging directory — or an unreferenced object
	// directory — must be before a sweep treats it as debris: writes in
	// flight in *other* processes (a staged Put, or an object renamed into
	// place whose index entry has not landed yet) have no in-process
	// registration, so age is the only safe signal. 0 means a one-hour
	// default; negative sweeps regardless of age (in-process registered
	// writers are still always skipped).
	TmpGrace time.Duration
	// DryRun reports what would be removed without removing it.
	DryRun bool
}

// GCReport is the result of one collection.
type GCReport struct {
	ExpiredEntries int
	OrphanObjects  int
	TmpDebris      int
	BytesReclaimed int64
}

// GC expires stale index entries (per opts.MaxAge), removes object
// directories no index entry references, and clears abandoned staging
// directories under tmp/.
func (s *Store) GC(opts GCOptions) (*GCReport, error) {
	rep := &GCReport{}
	cutoff := time.Time{}
	if opts.MaxAge > 0 {
		cutoff = time.Now().UTC().Add(-opts.MaxAge)
	}

	s.mu.Lock()
	// Liveness must be computed over the union of this handle's view and
	// whatever other processes persisted since it last merged: a registry
	// server, a farm, and an ad-hoc elfiestore can share one root, and a
	// stale in-memory index would make their recent artifacts look like
	// orphans — deleted objects still referenced by index.json.
	release, err := s.lockIndex()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	err = s.mergeDiskLocked()
	release()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	live := make(map[string]bool)
	for key, e := range s.idx {
		if !cutoff.IsZero() && e.LastUsed.Before(cutoff) {
			rep.ExpiredEntries++
			if !opts.DryRun {
				delete(s.idx, key)
				s.deleted[key] = time.Now().UTC()
			}
			continue
		}
		live[e.Object] = true
	}
	inflight := make(map[string]bool, len(s.staging))
	for b := range s.staging {
		inflight[b] = true
	}
	for id := range s.pending {
		live[id] = true
	}
	if !opts.DryRun && rep.ExpiredEntries > 0 {
		err = s.saveIndexLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Chunks of live top objects are live too (see PutChunked).
	tops := make([]string, 0, len(live))
	for id := range live {
		tops = append(tops, id)
	}
	for _, id := range tops {
		for _, cid := range s.chunkRefs(id) {
			live[cid] = true
		}
	}

	// Both sweeps below share one age rule: anything a writer in another
	// process may still be mid-flight on is invisible here, so age is the
	// only safe cross-process signal. 0 means a one-hour default; negative
	// sweeps regardless of age.
	grace := opts.TmpGrace
	if grace == 0 {
		grace = time.Hour
	}

	// Orphan objects: present on disk, referenced by nothing.
	prefixes, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return nil, err
	}
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(s.root, "objects", p.Name()))
		if err != nil {
			return nil, err
		}
		for _, o := range objs {
			if live[o.Name()] {
				continue
			}
			// A young object dir may be another process's Put that has
			// renamed the object into place but not yet saved the index
			// entry referencing it — in that window no index anywhere
			// names the object, so only its age proves it abandoned.
			if grace > 0 {
				if info, err := o.Info(); err != nil || time.Since(info.ModTime()) < grace {
					continue
				}
			}
			dir := filepath.Join(s.root, "objects", p.Name(), o.Name())
			if opts.DryRun {
				rep.OrphanObjects++
				rep.BytesReclaimed += dirSize(dir)
				continue
			}
			// The liveness snapshot above may predate a concurrent Put whose
			// index entry landed since — in this process (re-check s.idx and
			// the pins under s.mu) or in another one (re-merge the on-disk
			// index under the flock, held across the removal so no save can
			// interleave). Put pins its object ID before probing for it, so
			// any deletion decided here is invisible to in-flight writers.
			size := dirSize(dir)
			s.mu.Lock()
			release, err := s.lockIndex()
			if err != nil {
				s.mu.Unlock()
				return nil, err
			}
			mergeErr := s.mergeDiskLocked()
			dead := mergeErr == nil && s.orphanDeadLocked(o.Name())
			var rmErr error
			if dead {
				rmErr = os.RemoveAll(dir)
			}
			release()
			s.mu.Unlock()
			if mergeErr != nil {
				return nil, mergeErr
			}
			if rmErr != nil {
				return nil, rmErr
			}
			if dead {
				rep.OrphanObjects++
				rep.BytesReclaimed += size
			}
		}
	}

	// Staging debris from crashed writers. In-flight writers registered in
	// this process are always skipped; everything else falls under the
	// shared grace rule above.
	tmps, err := os.ReadDir(filepath.Join(s.root, "tmp"))
	if err != nil {
		return nil, err
	}
	for _, t := range tmps {
		if inflight[t.Name()] {
			continue
		}
		if grace > 0 {
			if info, err := t.Info(); err != nil || time.Since(info.ModTime()) < grace {
				continue
			}
		}
		if opts.DryRun {
			rep.TmpDebris++
			continue
		}
		// Re-check under the lock: a writer that registered after the
		// snapshot above must not lose its staging dir (writeObject
		// registers before creating it, so existence implies registration).
		s.mu.Lock()
		skip := s.staging[t.Name()]
		var rmErr error
		if !skip {
			rmErr = os.RemoveAll(filepath.Join(s.root, "tmp", t.Name()))
		}
		s.mu.Unlock()
		if rmErr != nil {
			return nil, rmErr
		}
		if !skip {
			rep.TmpDebris++
		}
	}
	return rep, nil
}

// orphanDeadLocked decides, under s.mu, whether an on-disk object is truly
// unreferenced: not pinned by an in-flight Put, not an index entry's object,
// and not a chunk of any indexed chunked object.
func (s *Store) orphanDeadLocked(id string) bool {
	if s.pending[id] > 0 {
		return false
	}
	for _, e := range s.idx {
		if e.Object == id {
			return false
		}
	}
	for _, e := range s.idx {
		for _, cid := range s.chunkRefs(e.Object) {
			if cid == id {
				return false
			}
		}
	}
	return true
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// SortedKinds returns a stats kind list in stable order (for display).
func (st Stats) SortedKinds() []string {
	kinds := make([]string, 0, len(st.Kinds))
	for k := range st.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
