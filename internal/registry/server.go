package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"elfie/internal/store"
)

// Tenant is one namespace's policy.
type Tenant struct {
	// Quota caps the tenant's total logical bytes (0 = unlimited). Logical,
	// not physical: what the tenant's artifacts would cost to download, so
	// a tenant cannot burn quota accounting on how well its pages dedup.
	Quota int64
	// MaxAge is the tenant's GC policy: entries unused this long expire on
	// the next tenant GC (0 = never).
	MaxAge time.Duration
}

// ServerOptions configures a registry server.
type ServerOptions struct {
	// Tenants, when non-empty, closes the namespace set: requests for
	// unlisted tenants are rejected. When empty the registry is open —
	// any well-formed tenant name is accepted with DefaultPolicy.
	Tenants map[string]Tenant
	// DefaultPolicy applies to auto-created tenants in open mode.
	DefaultPolicy Tenant
	// Lint arms elflint on the deep-verify endpoint, so the registry can
	// attest it would never serve an artifact the static verifier rejects.
	Lint bool
	// MaxBlob bounds a single uploaded blob (0 = 16 MiB) — the server
	// refuses to buffer more than this per request.
	MaxBlob int64
}

// Server serves one content-addressed store over HTTP. All state beyond the
// store itself lives on disk under <root>/uploads, so a restarted server
// resumes every in-flight upload where it stopped.
type Server struct {
	store *store.Store
	opts  ServerOptions

	// upMu serializes upload-session create/commit transitions (blob PUTs
	// within a session are naturally parallel: distinct files).
	upMu sync.Mutex

	// chunkMu guards chunkSets, the per-tenant cache of which chunk object
	// IDs the tenant's entries reference (see tenantChunks).
	chunkMu   sync.Mutex
	chunkSets map[string]*chunkSet
}

// chunkSet caches one tenant's referenced chunk IDs, keyed by a signature
// of the tenant's (key, object) entry pairs so any index change — commit,
// delete, GC — invalidates it.
type chunkSet struct {
	sig string
	ids map[string]bool
}

// NewServer wraps a store in a registry server.
func NewServer(s *store.Store, opts ServerOptions) *Server {
	if opts.MaxBlob <= 0 {
		opts.MaxBlob = 16 << 20
	}
	return &Server{store: s, opts: opts, chunkSets: make(map[string]*chunkSet)}
}

var (
	tenantRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)
	keyRe    = regexp.MustCompile(`^[A-Za-z0-9._:-]+(/[A-Za-z0-9._:-]+)*$`)
)

// validKey accepts store keys, including slash-separated ones like
// ckpt/<job>/<icount> (clients percent-encode the slashes; the router keeps
// them in one path segment). Keys are index names, never filesystem paths,
// but ".." segments are refused anyway.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 200 || !keyRe.MatchString(key) {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == ".." {
			return false
		}
	}
	return true
}

// tenantPrefix namespaces a tenant's keys inside the shared store index.
func tenantPrefix(tenant string) string { return "t/" + tenant + "/" }

// Handler returns the registry's HTTP handler.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, PingResponse{OK: true, Version: ProtocolVersion})
	})
	mux.HandleFunc("GET /v1/t/{tenant}", sv.tenantized(sv.handleTenantStatus))
	mux.HandleFunc("GET /v1/t/{tenant}/entries", sv.tenantized(sv.handleEntries))
	mux.HandleFunc("GET /v1/t/{tenant}/artifacts/{key}", sv.tenantized(sv.handleArtifact))
	mux.HandleFunc("GET /v1/t/{tenant}/artifacts/{key}/object", sv.tenantized(sv.handleArtifactObject))
	mux.HandleFunc("GET /v1/t/{tenant}/objects/{id}", sv.tenantized(sv.handleObject))
	mux.HandleFunc("POST /v1/t/{tenant}/uploads", sv.tenantized(sv.handleUploadOpen))
	mux.HandleFunc("GET /v1/t/{tenant}/uploads/{id}", sv.tenantized(sv.handleUploadStatus))
	mux.HandleFunc("PUT /v1/t/{tenant}/uploads/{id}/blobs/{blob}", sv.tenantized(sv.handleUploadBlob))
	mux.HandleFunc("POST /v1/t/{tenant}/uploads/{id}/commit", sv.tenantized(sv.handleUploadCommit))
	mux.HandleFunc("POST /v1/t/{tenant}/verify", sv.tenantized(sv.handleVerify))
	mux.HandleFunc("POST /v1/t/{tenant}/gc", sv.tenantized(sv.handleGC))
	return mux
}

// tenantized validates the tenant path segment and resolves its policy
// before dispatching.
func (sv *Server) tenantized(h func(http.ResponseWriter, *http.Request, string, Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		if !tenantRe.MatchString(name) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid tenant name %q", name))
			return
		}
		pol, ok := sv.opts.Tenants[name]
		if !ok {
			if len(sv.opts.Tenants) > 0 {
				writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", name))
				return
			}
			pol = sv.opts.DefaultPolicy
		}
		h(w, r, name, pol)
	}
}

func (sv *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	entries, logical := sv.tenantUsage(tenant)
	writeJSON(w, http.StatusOK, TenantStatus{
		Name: tenant, Entries: entries, LogicalBytes: logical,
		QuotaBytes: pol.Quota, MaxAgeSecs: int64(pol.MaxAge / time.Second),
	})
}

// tenantUsage sums a tenant's entry count and logical bytes.
func (sv *Server) tenantUsage(tenant string) (entries int, logical int64) {
	prefix := tenantPrefix(tenant)
	for _, e := range sv.store.Entries() {
		if strings.HasPrefix(e.Key, prefix) {
			entries++
			logical += sv.store.LogicalSize(&e)
		}
	}
	return entries, logical
}

func (sv *Server) handleEntries(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	prefix := tenantPrefix(tenant)
	out := []store.Entry{}
	for _, e := range sv.store.Entries() {
		if strings.HasPrefix(e.Key, prefix) {
			e.Key = strings.TrimPrefix(e.Key, prefix)
			out = append(out, e)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// artifactInfo builds the download manifest for one entry.
func (sv *Server) artifactInfo(e *store.Entry, tenant string) (*ArtifactInfo, error) {
	top, err := sv.store.ReadObject(e.Object)
	if err != nil {
		return nil, err
	}
	refs, err := store.ChunkRefsOf(top)
	if err != nil {
		return nil, err
	}
	info := &ArtifactInfo{Entry: *e, Top: make(map[string]int64, len(top))}
	info.Entry.Key = strings.TrimPrefix(e.Key, tenantPrefix(tenant))
	for name, data := range top {
		info.Top[name] = int64(len(data))
	}
	seen := make(map[string]bool)
	for _, id := range refs {
		if seen[id] {
			continue
		}
		seen[id] = true
		part, err := sv.store.ReadObject(id)
		if err != nil {
			return nil, err
		}
		info.Chunks = append(info.Chunks, BlobRef{ID: id, Size: int64(len(part["chunk"]))})
	}
	return info, nil
}

// lookupArtifact resolves the request's key to its index entry and sets
// the content-hash ETag, the object ID. A client holding that object (its
// If-None-Match names it) is answered 304 from the index without reading
// the object, so it transfers zero bytes. ok=false means the response is
// already written.
func (sv *Server) lookupArtifact(w http.ResponseWriter, r *http.Request, tenant string) (e *store.Entry, ok bool) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid key"))
		return nil, false
	}
	e, ok = sv.store.Stat(tenantPrefix(tenant) + key)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no artifact %s", key))
		return nil, false
	}
	etag := `"` + e.Object + `"`
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, false
	}
	return e, true
}

func (sv *Server) handleArtifact(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	e, ok := sv.lookupArtifact(w, r, tenant)
	if !ok {
		return
	}
	info, err := sv.artifactInfo(e, tenant)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleArtifactObject serves an artifact's top object as its canonical
// form, the bytes its content address hashes. The object is read and
// verified once, before any header goes out, so a damaged object is refused
// with the store's error status instead of being half-sent. The ETag also
// serves If-Range: a resumed download keeps its Range only while the key
// still maps to the object its staged prefix belongs to.
func (sv *Server) handleArtifactObject(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	e, ok := sv.lookupArtifact(w, r, tenant)
	if !ok {
		return
	}
	body, err := sv.store.ReadCanonical(e.Object)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	w.Header().Set(KindHeader, e.Kind)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", e.CreatedAt, bytes.NewReader(body))
}

// tenantChunks returns the set of chunk object IDs the tenant's entries
// currently reference. Chunk objects dedup across tenants on disk, but the
// namespace model promises names *and their content* stay per-tenant — so
// raw chunk reads are scoped to this set, and in closed-tenant mode so is
// the upload negotiation's "already have it" shortcut. The set is cached
// per tenant against a signature of its (key, object) pairs; any index
// change recomputes it.
func (sv *Server) tenantChunks(tenant string) map[string]bool {
	prefix := tenantPrefix(tenant)
	var objects []string
	h := sha256.New()
	for _, e := range sv.store.Entries() {
		if !strings.HasPrefix(e.Key, prefix) {
			continue
		}
		objects = append(objects, e.Object)
		io.WriteString(h, e.Key)
		h.Write([]byte{0})
		io.WriteString(h, e.Object)
		h.Write([]byte{0})
	}
	sig := string(h.Sum(nil))
	sv.chunkMu.Lock()
	defer sv.chunkMu.Unlock()
	if cs := sv.chunkSets[tenant]; cs != nil && cs.sig == sig {
		return cs.ids
	}
	ids := make(map[string]bool)
	for _, obj := range objects {
		for _, id := range sv.store.ChunkRefs(obj) {
			ids[id] = true
		}
	}
	sv.chunkSets[tenant] = &chunkSet{sig: sig, ids: ids}
	return ids
}

func (sv *Server) handleObject(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	id := r.PathValue("id")
	// Serve only chunks this tenant's own artifacts reference: a hash
	// leaked (or guessed) from another namespace must not read out its
	// checkpoint pages. Unauthorized and absent are indistinguishable —
	// both 404 — so the endpoint leaks no cross-tenant presence either.
	if !sv.tenantChunks(tenant)[id] {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no chunk %.12s", id))
		return
	}
	files, err := sv.store.ReadObject(id)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	data, ok := files["chunk"]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("object %s is not a chunk", id))
		return
	}
	w.Header().Set("ETag", `"`+id+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, id, time.Time{}, bytes.NewReader(data))
}

// uploadDir is one upload session's durable staging directory.
func (sv *Server) uploadDir(tenant, id string) string {
	return filepath.Join(sv.store.Root(), "uploads", tenant, id)
}

// uploadGrace is how long an upload session may sit idle before a tenant GC
// treats it as abandoned. Every staged blob renames a file into the session
// directory and refreshes its mtime, so an actively resumed upload is never
// at risk — only sessions nobody has touched for this long.
const uploadGrace = time.Hour

// stagedBytes sums the tenant's staged upload blobs across all sessions —
// bytes parked on the server that no committed entry accounts for yet.
func (sv *Server) stagedBytes(tenant string) int64 {
	var n int64
	filepath.Walk(filepath.Join(sv.store.Root(), "uploads", tenant),
		func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				n += info.Size()
			}
			return nil
		})
	return n
}

// loadManifest reads an upload session's manifest; ok=false if the session
// does not exist.
func (sv *Server) loadManifest(tenant, id string) (*UploadManifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(sv.uploadDir(tenant, id), "manifest.json"))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var man UploadManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, false, fmt.Errorf("upload %s: damaged manifest: %v", id, err)
	}
	return &man, true, nil
}

// uploadNeeds computes what an upload session still lacks: declared wire
// blobs without a staged file, and declared chunk objects neither staged
// nor already in the store — the dedup negotiation that makes re-uploads
// ship only new content.
func (sv *Server) uploadNeeds(tenant, id string, man *UploadManifest) UploadStatus {
	st := UploadStatus{ID: id}
	dir := sv.uploadDir(tenant, id)
	staged := func(blob string) bool {
		_, err := os.Stat(filepath.Join(dir, "b-"+blob))
		return err == nil
	}
	seen := make(map[string]bool)
	for _, plan := range man.Top {
		for _, b := range plan.Blobs {
			if !seen[b.ID] && !staged(b.ID) {
				st.NeedBlobs = append(st.NeedBlobs, b.ID)
			}
			seen[b.ID] = true
		}
	}
	// In closed-tenant mode the "already in the store" shortcut is scoped
	// to chunks this tenant already references: acknowledging another
	// tenant's chunk would let an uploader probe cross-tenant content
	// presence by hash. The unauthorized chunk is simply requested — and
	// dedups on disk anyway when it arrives. Open mode keeps the global
	// shortcut (tenants are accounting namespaces there, not a
	// confidentiality boundary).
	var authorized map[string]bool
	if len(sv.opts.Tenants) > 0 {
		authorized = sv.tenantChunks(tenant)
	}
	for _, c := range man.Chunks {
		have := staged(c.ID) ||
			(sv.store.HasObject(c.ID) && (authorized == nil || authorized[c.ID]))
		if !seen[c.ID] && !have {
			st.NeedChunks = append(st.NeedChunks, c.ID)
		}
		seen[c.ID] = true
	}
	return st
}

// validateManifest rejects malformed declarations before any bytes move.
func validateManifest(man *UploadManifest) error {
	if !validKey(man.Key) {
		return fmt.Errorf("invalid key %q", man.Key)
	}
	if man.Kind == "" {
		return fmt.Errorf("missing kind")
	}
	if len(man.Object) != 64 {
		return fmt.Errorf("invalid object id")
	}
	if len(man.Top) == 0 {
		return fmt.Errorf("empty top file set")
	}
	for name, plan := range man.Top {
		if name != filepath.Base(name) || name == "" {
			return fmt.Errorf("invalid member name %q", name)
		}
		var total int64
		for _, b := range plan.Blobs {
			if len(b.ID) != 64 || b.Size < 0 {
				return fmt.Errorf("member %s: invalid blob ref", name)
			}
			total += b.Size
		}
		if total != plan.Size {
			return fmt.Errorf("member %s: blobs sum to %d, size says %d", name, total, plan.Size)
		}
	}
	for _, c := range man.Chunks {
		if len(c.ID) != 64 || c.Size < 0 {
			return fmt.Errorf("invalid chunk ref")
		}
	}
	return nil
}

func (sv *Server) handleUploadOpen(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	var man UploadManifest
	if err := json.NewDecoder(io.LimitReader(r.Body, sv.opts.MaxBlob)).Decode(&man); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("manifest: %v", err))
		return
	}
	if err := validateManifest(&man); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id := uploadID(tenant, man.Key, man.Object)
	// Already stored with this exact content? The whole transfer is moot.
	if e, ok := sv.store.Stat(tenantPrefix(tenant) + man.Key); ok && e.Object == man.Object {
		writeJSON(w, http.StatusOK, UploadStatus{ID: id, Committed: true})
		return
	}
	// Admission control up front: reject an upload that cannot fit, before
	// the client ships a single byte.
	if err := sv.quotaCheck(tenant, pol, &man); err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}

	sv.upMu.Lock()
	defer sv.upMu.Unlock()
	dir := sv.uploadDir(tenant, id)
	if existing, ok, err := sv.loadManifest(tenant, id); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	} else if !ok {
		// Fresh session: persist the manifest durably before acknowledging,
		// journal-style — a server killed after the ack still knows the
		// session on restart.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		data, _ := json.MarshalIndent(&man, "", " ")
		if err := atomicWrite(filepath.Join(dir, "manifest.json"), data); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	} else if existing.Object != man.Object {
		// Deterministic IDs make this unreachable unless hashes collide or
		// a client lies; refuse rather than mix two artifacts' blobs.
		writeErr(w, http.StatusConflict, fmt.Errorf("upload %s already open for object %s", id, existing.Object))
		return
	}
	writeJSON(w, http.StatusOK, sv.uploadNeeds(tenant, id, &man))
}

// quotaCheck admits an incoming artifact against the tenant's byte quota.
// Replacing an existing key frees that key's logical bytes first.
func (sv *Server) quotaCheck(tenant string, pol Tenant, man *UploadManifest) error {
	if pol.Quota <= 0 {
		return nil
	}
	var incoming int64
	for name, plan := range man.Top {
		if name != "chunks.json" {
			incoming += plan.Size
		}
	}
	for _, c := range man.Chunks {
		incoming += c.Size
	}
	_, used := sv.tenantUsage(tenant)
	if e, ok := sv.store.Stat(tenantPrefix(tenant) + man.Key); ok {
		used -= sv.store.LogicalSize(e)
	}
	if used+incoming > pol.Quota {
		return fmt.Errorf("tenant %s over quota: %d used + %d incoming > %d",
			tenant, used, incoming, pol.Quota)
	}
	return nil
}

func (sv *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	id := r.PathValue("id")
	man, ok, err := sv.loadManifest(tenant, id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no upload %s", id))
		return
	}
	writeJSON(w, http.StatusOK, sv.uploadNeeds(tenant, id, man))
}

func (sv *Server) handleUploadBlob(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	id, blob := r.PathValue("id"), r.PathValue("blob")
	man, ok, err := sv.loadManifest(tenant, id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no upload %s", id))
		return
	}
	isChunk, declared := blobRole(man, blob)
	if !declared {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("blob %s not declared by upload %s", blob, id))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, sv.opts.MaxBlob+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if int64(len(data)) > sv.opts.MaxBlob {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("blob exceeds %d bytes", sv.opts.MaxBlob))
		return
	}
	// Hash-verify on receipt: a corrupt blob is rejected at the door, in
	// the hash domain its role demands.
	if isChunk {
		if store.ObjectID(store.FileSet{"chunk": data}) != blob {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("chunk %s does not hash to its id", blob))
			return
		}
	} else if blobID(data) != blob {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("blob %s does not hash to its id", blob))
		return
	}
	// Staged bytes are charged against the quota as they land, not only at
	// upload-open: otherwise a tenant could park unbounded never-committed
	// blobs across many sessions. Replacing an existing key frees that
	// key's logical bytes, mirroring quotaCheck's admission.
	if pol.Quota > 0 {
		_, used := sv.tenantUsage(tenant)
		if e, ok := sv.store.Stat(tenantPrefix(tenant) + man.Key); ok {
			used -= sv.store.LogicalSize(e)
		}
		if used+sv.stagedBytes(tenant)+int64(len(data)) > pol.Quota {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("tenant %s over quota: staged upload bytes would exceed %d", tenant, pol.Quota))
			return
		}
	}
	// Stage atomically and durably: rename guarantees a half-written blob
	// is never counted as present, fsync guarantees a counted blob
	// survives a server kill.
	if err := atomicWrite(filepath.Join(sv.uploadDir(tenant, id), "b-"+blob), data); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// blobRole reports whether an ID is declared by the manifest and whether it
// is a store chunk object (vs a wire blob of a top member).
func blobRole(man *UploadManifest, id string) (isChunk, declared bool) {
	for _, c := range man.Chunks {
		if c.ID == id {
			return true, true
		}
	}
	for _, plan := range man.Top {
		for _, b := range plan.Blobs {
			if b.ID == id {
				return false, true
			}
		}
	}
	return false, false
}

func (sv *Server) handleUploadCommit(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	id := r.PathValue("id")
	sv.upMu.Lock()
	defer sv.upMu.Unlock()
	man, ok, err := sv.loadManifest(tenant, id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		// The session may be gone because an earlier commit succeeded and a
		// crashed client never saw the ack; the stored entry is the truth.
		writeErr(w, http.StatusNotFound, fmt.Errorf("no upload %s", id))
		return
	}
	storeKey := tenantPrefix(tenant) + man.Key
	if e, ok := sv.store.Stat(storeKey); ok && e.Object == man.Object {
		os.RemoveAll(sv.uploadDir(tenant, id))
		writeJSON(w, http.StatusOK, e)
		return
	}
	if st := sv.uploadNeeds(tenant, id, man); len(st.NeedBlobs) > 0 || len(st.NeedChunks) > 0 {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("upload %s incomplete: %d blobs, %d chunks missing",
				id, len(st.NeedBlobs), len(st.NeedChunks)))
		return
	}
	if err := sv.quotaCheck(tenant, pol, man); err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}

	dir := sv.uploadDir(tenant, id)
	top := make(store.FileSet, len(man.Top))
	for name, plan := range man.Top {
		buf := make([]byte, 0, plan.Size)
		for _, b := range plan.Blobs {
			part, err := os.ReadFile(filepath.Join(dir, "b-"+b.ID))
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			buf = append(buf, part...)
		}
		top[name] = buf
	}
	chunks := make(map[string][]byte)
	for _, c := range man.Chunks {
		data, err := os.ReadFile(filepath.Join(dir, "b-"+c.ID))
		if os.IsNotExist(err) {
			continue // already in the store; PutAssembled checks
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		chunks[c.ID] = data
	}
	// The assembled top must hash to the declared object — the same
	// end-to-end integrity check the store applies on every read. The
	// commit hashes it once and refuses a mismatch before writing anything.
	e, err := sv.store.PutAssembled(storeKey, man.Kind, man.Object, top, chunks)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	os.RemoveAll(dir)
	writeJSON(w, http.StatusOK, e)
}

func (sv *Server) handleVerify(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	lint := sv.opts.Lint && r.URL.Query().Get("lint") != "0"
	rep, err := sv.store.VerifyWith(store.VerifyOptions{Lint: lint, KeyPrefix: tenantPrefix(tenant)})
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	out := VerifyReport{
		Checked: rep.Checked, Pinballs: rep.Pinballs, Unverified: rep.Unverified,
		Linted: rep.Linted, Chunked: rep.Chunked, Checkpoints: rep.Checkpoints,
	}
	for _, p := range rep.Problems {
		out.Problems = append(out.Problems, Problem{
			Key:    strings.TrimPrefix(p.Key, tenantPrefix(tenant)),
			Object: p.Object, Err: p.Err.Error(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (sv *Server) handleGC(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	res := GCResult{}
	// Tenant policy first: expire this namespace's stale entries without
	// touching anyone else's.
	if pol.MaxAge > 0 {
		cutoff := time.Now().UTC().Add(-pol.MaxAge)
		prefix := tenantPrefix(tenant)
		for _, e := range sv.store.Entries() {
			if strings.HasPrefix(e.Key, prefix) && e.LastUsed.Before(cutoff) {
				if err := sv.store.Delete(e.Key); err != nil {
					writeStoreErr(w, err)
					return
				}
				res.ExpiredEntries++
			}
		}
	}
	// Then the store-wide orphan sweep reclaims whatever those expirations
	// (and everyone's past deletes) unreferenced.
	rep, err := sv.store.GC(store.GCOptions{})
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	res.OrphanObjects = rep.OrphanObjects
	res.TmpDebris = rep.TmpDebris
	res.BytesReclaimed = rep.BytesReclaimed
	// Abandoned upload sessions: opened, never committed, idle past the
	// grace. An active session's directory mtime refreshes on every staged
	// blob, so the age gate only catches uploads nobody will resume — the
	// same rule the store applies to tmp/ staging debris.
	updir := filepath.Join(sv.store.Root(), "uploads", tenant)
	if sessions, err := os.ReadDir(updir); err == nil {
		for _, sess := range sessions {
			info, err := sess.Info()
			if err != nil || time.Since(info.ModTime()) < uploadGrace {
				continue
			}
			sv.upMu.Lock()
			err = os.RemoveAll(filepath.Join(updir, sess.Name()))
			sv.upMu.Unlock()
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			res.StaleUploads++
		}
	}
	writeJSON(w, http.StatusOK, res)
}

// atomicWrite stages data beside path and renames it into place, fsyncing
// first — the same torn-write discipline as the store and the farm journal.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".part"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeStoreErr maps store failures onto HTTP: integrity failures are 422
// (the content is damaged, retrying won't help), everything else is a 500.
func writeStoreErr(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrCorrupt) {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeErr(w, http.StatusInternalServerError, err)
}
