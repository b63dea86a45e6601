package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Page-level chunked storage. Successive mid-run checkpoints of one guest
// share almost all of their memory image — only the pages the region dirtied
// since the last checkpoint differ. Storing each checkpoint as one monolithic
// object would duplicate the shared pages every time; PutChunked instead
// splits large members into fixed-size chunks, stores each chunk as its own
// content-addressed object, and keeps a small manifest in the top object.
// Identical chunks across checkpoints deduplicate to one object directory,
// so a checkpoint series costs roughly its dirty-page delta.

// chunkManifestName is the reserved top-object member naming the chunked
// members and their chunk object IDs.
const chunkManifestName = "chunks.json"

// DefaultChunkSize is the chunk granularity when PutChunked is called with
// size 0: one guest page, the natural dirty-tracking unit.
const DefaultChunkSize = 4096

type chunkedMember struct {
	Size   int64    `json:"size"`
	Chunks []string `json:"chunks"`
}

type chunkManifest struct {
	Version   int                      `json:"version"`
	ChunkSize int                      `json:"chunk_size"`
	Members   map[string]chunkedMember `json:"members"`
}

// PutChunked stores a file set like Put, but splits members of at least two
// chunks' size into chunkSize-byte chunk objects (0 = DefaultChunkSize).
// Small members stay inline in the top object. Get and VerifyWith reassemble
// transparently; GC keeps chunks of live objects. The entry's Size reflects
// the top object only — chunk bytes are shared and counted once per chunk
// object, not per referencing checkpoint.
func (s *Store) PutChunked(key, kind string, files FileSet, chunkSize int) (*Entry, error) {
	top, chunks, err := ChunkPlan(files, chunkSize)
	if err != nil {
		return nil, err
	}
	return s.putAssembled(key, kind, ObjectID(top), top, chunks)
}

// ChunkPlan splits a file set exactly as PutChunked stores it: members of
// at least two chunks' size (0 = DefaultChunkSize) become chunk-object
// references in the returned top file set, whose chunks.json manifest names
// them; chunks maps each chunk object's content address to its data. A file
// set with nothing big enough to chunk passes through as itself with no
// chunks. The split is a pure function of (files, chunkSize), so a client
// and a server that plan the same artifact agree on every chunk ID — the
// property the registry's dedup-aware upload negotiation rests on.
func ChunkPlan(files FileSet, chunkSize int) (top FileSet, chunks map[string][]byte, err error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if _, ok := files[chunkManifestName]; ok {
		return nil, nil, fmt.Errorf("store: member name %q is reserved for chunked storage", chunkManifestName)
	}
	man := chunkManifest{Version: 1, ChunkSize: chunkSize, Members: make(map[string]chunkedMember)}
	top = make(FileSet, len(files)+1)
	chunks = make(map[string][]byte)
	for name, data := range files {
		if len(data) < 2*chunkSize {
			top[name] = data
			continue
		}
		ids := make([]string, 0, (len(data)+chunkSize-1)/chunkSize)
		for off := 0; off < len(data); off += chunkSize {
			part := data[off:min(off+chunkSize, len(data))]
			id := ObjectID(FileSet{"chunk": part})
			chunks[id] = part
			ids = append(ids, id)
		}
		man.Members[name] = chunkedMember{Size: int64(len(data)), Chunks: ids}
	}
	if len(man.Members) == 0 {
		return files, map[string][]byte{}, nil
	}
	mdata, err := json.MarshalIndent(&man, "", " ")
	if err != nil {
		return nil, nil, err
	}
	top[chunkManifestName] = mdata
	return top, chunks, nil
}

// PutAssembled stores a pre-assembled top object together with the chunk
// objects its manifest references — the commit primitive for a network
// transfer that moves an artifact's stored representation verbatim (so its
// content addresses survive the wire unchanged). id is the object the
// sender named: the top is hashed once, and unless it hashes to id the
// commit is refused with ErrCorrupt before anything is written. Chunk data
// present in chunks is verified against its ID before being written; a
// manifest reference with no data supplied must already exist in the store.
func (s *Store) PutAssembled(key, kind, id string, top FileSet, chunks map[string][]byte) (*Entry, error) {
	if got := ObjectID(top); got != id {
		return nil, fmt.Errorf("%w: assembled object hashes to %s, expected %s", ErrCorrupt, shortID(got), shortID(id))
	}
	return s.putAssembled(key, kind, id, top, chunks)
}

// putAssembled is PutAssembled for a top whose content address id the
// caller computed itself.
func (s *Store) putAssembled(key, kind, id string, top FileSet, chunks map[string][]byte) (*Entry, error) {
	// Chunk objects are pinned until the top object's index entry lands (the
	// Put below), so a concurrent GC never orphan-sweeps a chunk before the
	// manifest referencing it is live.
	var pinned []string
	defer func() { s.unpin(pinned...) }()
	for id, data := range chunks {
		part := FileSet{"chunk": data}
		if ObjectID(part) != id {
			return nil, fmt.Errorf("%w: chunk %s does not hash to its id", ErrCorrupt, shortID(id))
		}
		s.pin(id)
		pinned = append(pinned, id)
		if !dirExists(s.objectDir(id)) {
			if err := s.writeObject(s.objectDir(id), part); err != nil {
				return nil, err
			}
		}
	}
	refs, err := ChunkRefsOf(top)
	if err != nil {
		return nil, err
	}
	for _, id := range refs {
		if _, sent := chunks[id]; sent {
			continue
		}
		s.pin(id)
		pinned = append(pinned, id)
		if !s.HasObject(id) {
			return nil, fmt.Errorf("%w: manifest references chunk %s which is neither supplied nor stored",
				ErrCorrupt, shortID(id))
		}
	}
	return s.put(key, kind, id, top)
}

// ChunkRefsOf parses a top file set's chunk manifest and returns the chunk
// object IDs it references, in member order (nil for unchunked sets). Every
// ID is validated as a well-formed content address — manifests can arrive
// over the network, and a malformed ID must never reach a filesystem path.
func ChunkRefsOf(top FileSet) ([]string, error) {
	mdata, ok := top[chunkManifestName]
	if !ok {
		return nil, nil
	}
	var man chunkManifest
	if err := json.Unmarshal(mdata, &man); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, chunkManifestName, err)
	}
	names := make([]string, 0, len(man.Members))
	for name := range man.Members {
		names = append(names, name)
	}
	sort.Strings(names)
	var ids []string
	for _, name := range names {
		for _, id := range man.Members[name].Chunks {
			if !ValidObjectID(id) {
				return nil, fmt.Errorf("%w: %s: invalid chunk id %q", ErrCorrupt, chunkManifestName, shortID(id))
			}
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Resolve reassembles a top object's chunked members from the store's chunk
// objects. File sets without a chunk manifest pass through unchanged. Every
// chunk object is integrity-checked like any other object read.
func (s *Store) Resolve(files FileSet) (FileSet, error) {
	mdata, ok := files[chunkManifestName]
	if !ok {
		return files, nil
	}
	var man chunkManifest
	if err := json.Unmarshal(mdata, &man); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, chunkManifestName, err)
	}
	out := make(FileSet, len(files)+len(man.Members))
	for name, data := range files {
		if name != chunkManifestName {
			out[name] = data
		}
	}
	for name, m := range man.Members {
		buf := make([]byte, 0, m.Size)
		for _, id := range m.Chunks {
			if !ValidObjectID(id) {
				return nil, fmt.Errorf("%w: member %s: invalid chunk id %q",
					ErrCorrupt, name, shortID(id))
			}
			part, err := s.ReadObject(id)
			if err != nil {
				return nil, fmt.Errorf("member %s: %w", name, err)
			}
			c, ok := part["chunk"]
			if !ok {
				return nil, fmt.Errorf("%w: chunk object %s has no chunk member",
					ErrCorrupt, shortID(id))
			}
			buf = append(buf, c...)
		}
		if int64(len(buf)) != m.Size {
			return nil, fmt.Errorf("%w: member %s reassembles to %d bytes, manifest says %d",
				ErrCorrupt, name, len(buf), m.Size)
		}
		out[name] = buf
	}
	return out, nil
}

// LogicalSizeOf returns the reassembled artifact size of a top file set:
// inline members plus the manifest sizes of chunked members, the chunk
// manifest's own bookkeeping bytes excluded. The registry's tenant quotas
// charge this — what the artifact costs a client to download — rather than
// the deduplicated on-disk footprint.
func LogicalSizeOf(top FileSet) int64 {
	var size int64
	for name, data := range top {
		if name != chunkManifestName {
			size += int64(len(data))
		}
	}
	mdata, ok := top[chunkManifestName]
	if !ok {
		return size
	}
	var man chunkManifest
	if json.Unmarshal(mdata, &man) != nil {
		return size
	}
	for _, m := range man.Members {
		size += m.Size
	}
	return size
}

// ChunkRefs returns the chunk object IDs the stored top object references,
// by reading just its manifest member off disk — the cheap form of
// ChunkRefsOf for an object already in the store. The registry uses it to
// scope raw-chunk reads to the chunks a tenant's entries actually reference.
func (s *Store) ChunkRefs(id string) []string {
	if !ValidObjectID(id) {
		return nil
	}
	return s.chunkRefs(id)
}

// chunkRefs returns the chunk object IDs a live top object references, by
// reading just its manifest member off disk. Non-chunked and unreadable
// objects return nothing — Verify, not GC, is where damage is reported.
func (s *Store) chunkRefs(id string) []string {
	mdata, err := os.ReadFile(filepath.Join(s.objectDir(id), chunkManifestName))
	if err != nil {
		return nil
	}
	var man chunkManifest
	if json.Unmarshal(mdata, &man) != nil {
		return nil
	}
	var ids []string
	for _, m := range man.Members {
		ids = append(ids, m.Chunks...)
	}
	return ids
}
