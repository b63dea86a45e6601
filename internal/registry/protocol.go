// Package registry serves a content-addressed checkpoint store over HTTP,
// turning the pipeline's pinballs, ELFies, and mid-run checkpoints into
// distributable artifacts: one machine's farm produces them, any other
// machine's validation or simulation runs pull them — no manual artifact
// shuffling, and a warm client transfers zero bytes.
//
// The wire protocol leans entirely on the store's content addressing:
//
//   - Artifacts travel in their *stored representation* — the top object
//     plus the page-chunk objects its manifest references — so content
//     addresses survive the network unchanged and a pulled artifact is
//     byte-identical (same object ID) to the pushed one.
//   - An upload is one streamed PUT of the top object's canonical form —
//     the bytes its content address hashes — into a server-side stage that
//     resumes from its length, plus the chunk objects the server says it
//     lacks (dedup negotiation: re-pushing a near-identical checkpoint
//     ships only the pages it dirtied). The client reads and verifies the
//     object once and the server hashes it once, when it commits.
//   - A download is the mirror: one streamed GET of the canonical form, so
//     the server reads and verifies the object once and the client hashes
//     it once, when it commits. Reads carry content-hash ETags
//     (If-None-Match answers 304 with zero bytes) and honor HTTP Range with
//     If-Range, so an interrupted download continues from its last staged
//     byte. A HEAD of the same URL with If-None-Match is a push's warm
//     check: 304 when the key holds the pusher's object, 200 when it holds
//     another, answered from the index without reading either.
//   - A transfer stage on either side is a resumption hint, not a durable
//     record: it is appended without fsync, a killed process resumes from
//     it, and the commit's hash catches a stage an OS crash tore (the
//     transfer then re-sends the body whole, once). Only the store commit
//     and the upload session's manifest are fsynced.
//   - Namespaces are per-tenant path prefixes with byte quotas and a GC
//     age policy, layered over the store's index and GC.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/ping                                    liveness + protocol version
//	GET  /v1/t/{tenant}                              tenant status (usage, quota)
//	GET  /v1/t/{tenant}/entries                      index listing
//	GET  /v1/t/{tenant}/artifacts/{key}/object    top object, canonical form (bytes; ETag: object,
//	                                              Elfie-Kind: entry kind; Range, If-Range); HEAD
//	                                              answers from the index (If-None-Match: 304)
//	GET  /v1/t/{tenant}/objects/{id}              raw chunk object (Range, ETag)
//	POST /v1/t/{tenant}/uploads                   open/resume an upload (manifest in; staged
//	                                              length and needed chunks out)
//	GET  /v1/t/{tenant}/uploads/{id}              upload status (staged length, needed chunks)
//	PUT  /v1/t/{tenant}/uploads/{id}/object       top object, canonical form (bytes; Content-Range
//	                                              starting at the staged length)
//	PUT  /v1/t/{tenant}/uploads/{id}/blobs/{blob} one chunk object (bytes, hash-verified)
//	POST /v1/t/{tenant}/uploads/{id}/commit       parse, hash, store; entry out
//	POST /v1/t/{tenant}/verify?lint=1             server-side deep verify (store.VerifyWith)
//	POST /v1/t/{tenant}/gc                        tenant-policy GC + orphan sweep
package registry

import (
	"crypto/sha256"
	"encoding/hex"
)

// ProtocolVersion is bumped on incompatible wire changes; ping reports it
// so mismatched clients fail fast instead of misparsing.
const ProtocolVersion = 4

// KindHeader carries an artifact's entry kind on an object download, the
// one index field the puller needs for its commit besides the object ID
// (which the ETag carries).
const KindHeader = "Elfie-Kind"

// DefaultTenant is the namespace used when a client does not name one.
const DefaultTenant = "default"

// DefaultWireChunk is the piece size of a streamed transfer: the unit of
// accounting, crash-hook ticks and resume granularity in both directions,
// while the request count stays one per object.
const DefaultWireChunk = 64 << 10

// BlobRef names one chunk object by its store content address.
type BlobRef struct {
	ID   string `json:"id"`
	Size int64  `json:"size"`
}

// UploadManifest is the client's opening declaration: the artifact's
// identity, the length of the top object's canonical form, and the chunk
// objects its manifest references. POSTing the same manifest again
// reattaches to the same upload (the upload ID is a deterministic function
// of tenant, key, and object), which is what makes resume free.
type UploadManifest struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	// Object is the top object's content address; commit fails unless the
	// staged canonical form hashes to exactly this.
	Object string `json:"object"`
	// Size is the length of the top object's canonical form: the object PUT
	// may not run past it, and commit waits until the stage holds all of it.
	Size int64 `json:"size"`
	// Chunks are the store chunk objects the top's manifest references,
	// transferred whole under their content addresses.
	Chunks []BlobRef `json:"chunks"`
}

// UploadStatus is the server's answer: what it still needs. Staged equal to
// the declared size and no needed chunks means the client can commit.
type UploadStatus struct {
	ID string `json:"id"`
	// Staged is how many bytes of the canonical form the server holds; the
	// next object PUT starts there.
	Staged int64 `json:"staged"`
	// NeedChunks lists the chunk IDs not yet present server-side —
	// everything else is already staged or already in the store and must
	// not be re-sent.
	NeedChunks []string `json:"need_chunks,omitempty"`
	// Committed reports the artifact is already stored with this exact
	// object ID; the transfer is a no-op.
	Committed bool `json:"committed,omitempty"`
}

// Problem is one verification failure, wire-safe (errors as strings) and
// attributed to where it was observed.
type Problem struct {
	// Source is "local" or "remote" in merged reports; servers leave it
	// empty (the client fills it in).
	Source string `json:"source,omitempty"`
	Key    string `json:"key"`
	Object string `json:"object"`
	Err    string `json:"err"`
}

// VerifyReport mirrors store.VerifyReport across the wire.
type VerifyReport struct {
	Checked     int       `json:"checked"`
	Pinballs    int       `json:"pinballs"`
	Unverified  int       `json:"unverified"`
	Linted      int       `json:"linted"`
	Chunked     int       `json:"chunked"`
	Checkpoints int       `json:"checkpoints"`
	Problems    []Problem `json:"problems,omitempty"`
}

// OK reports whether the scan found no problems.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// GCResult reports one tenant-policy collection.
type GCResult struct {
	ExpiredEntries int `json:"expired_entries"`
	OrphanObjects  int `json:"orphan_objects"`
	TmpDebris      int `json:"tmp_debris"`
	// StaleUploads counts abandoned upload-session directories (opened,
	// never committed, idle past the grace window) the sweep removed.
	StaleUploads   int   `json:"stale_uploads,omitempty"`
	BytesReclaimed int64 `json:"bytes_reclaimed"`
}

// TenantStatus is one namespace's usage against its policy.
type TenantStatus struct {
	Name         string `json:"name"`
	Entries      int    `json:"entries"`
	LogicalBytes int64  `json:"logical_bytes"`
	QuotaBytes   int64  `json:"quota_bytes"`
	MaxAgeSecs   int64  `json:"max_age_secs"`
}

// PingResponse answers GET /v1/ping.
type PingResponse struct {
	OK      bool `json:"ok"`
	Version int  `json:"version"`
}

// errorBody is the JSON error envelope non-2xx responses carry.
type errorBody struct {
	Error string `json:"error"`
}

// uploadID derives the deterministic resume handle for one (tenant, key,
// object) transfer: a client killed mid-push re-derives the same ID and
// reattaches to the server's staged state.
func uploadID(tenant, key, object string) string {
	h := sha256.New()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(object))
	return hex.EncodeToString(h.Sum(nil))[:24]
}
