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
	"slices"
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
	// MaxBlob bounds a single uploaded chunk object or upload manifest
	// (0 = 16 MiB) — the server refuses to buffer more than this per
	// request. The top object streams to disk and is bounded by its
	// declared size instead.
	MaxBlob int64
}

// Server serves one content-addressed store over HTTP. All state beyond the
// store itself lives on disk under <root>/uploads, so a restarted server
// resumes every in-flight upload where it stopped.
type Server struct {
	store *store.Store
	opts  ServerOptions

	// sessMu guards sessions, the locks of the upload sessions some request
	// is using (see lockSession).
	sessMu   sync.Mutex
	sessions map[string]*sessionLock

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
	return &Server{store: s, opts: opts, chunkSets: make(map[string]*chunkSet),
		sessions: make(map[string]*sessionLock)}
}

var (
	tenantRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)
	keyRe    = regexp.MustCompile(`^[A-Za-z0-9._:-]+(/[A-Za-z0-9._:-]+)*$`)
)

// validKey accepts store keys, including slash-separated ones like
// ckpt/<region key> (clients percent-encode the slashes; the router keeps
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
	mux.HandleFunc("GET /v1/t/{tenant}/artifacts/{key}/object", sv.tenantized(sv.handleArtifactObject))
	mux.HandleFunc("GET /v1/t/{tenant}/objects/{id}", sv.tenantized(sv.handleObject))
	mux.HandleFunc("POST /v1/t/{tenant}/uploads", sv.tenantized(sv.handleUploadOpen))
	mux.HandleFunc("GET /v1/t/{tenant}/uploads/{id}", sv.tenantized(sv.handleUploadStatus))
	mux.HandleFunc("PUT /v1/t/{tenant}/uploads/{id}/object", sv.tenantized(sv.handleUploadObject))
	mux.HandleFunc("PUT /v1/t/{tenant}/uploads/{id}/blobs/{blob}", sv.tenantized(sv.handleUploadChunk))
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

// handleArtifactObject serves an artifact's top object as its canonical
// form, the bytes its content address hashes. The object is read and
// verified once, before any header goes out, so a damaged object is refused
// with the store's error status instead of being half-sent. The ETag also
// serves If-Range: a resumed download keeps its Range only while the key
// still maps to the object its staged prefix belongs to. A HEAD (which the
// GET route also matches) is a push's warm check: the ETag already answers
// it, so the object is not read.
func (sv *Server) handleArtifactObject(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	e, ok := sv.lookupArtifact(w, r, tenant)
	if !ok {
		return
	}
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
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

// uploadDir is one upload session's staging directory: manifest.json (the
// fsynced declaration), object (the canonical form's staged prefix) and one
// b-<id> file per received chunk object.
func (sv *Server) uploadDir(tenant, id string) string {
	return filepath.Join(sv.store.Root(), "uploads", tenant, id)
}

// sessionLock serializes the requests that touch one upload session's
// stage: open and status read its length, an object PUT appends to it,
// commit and GC remove it. refs counts holders and waiters, so the lock
// leaves the map when the last one does.
type sessionLock struct {
	mu   sync.Mutex
	refs int
}

// lockSession takes the lock of one upload session and returns its release.
// A retried PUT waits here until the handler still draining its broken
// predecessor has appended what arrived, so the stage length it checks is
// final.
func (sv *Server) lockSession(tenant, id string) (unlock func()) {
	name := tenant + "/" + id
	sv.sessMu.Lock()
	l := sv.sessions[name]
	if l == nil {
		l = &sessionLock{}
		sv.sessions[name] = l
	}
	l.refs++
	sv.sessMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		sv.sessMu.Lock()
		if l.refs--; l.refs == 0 {
			delete(sv.sessions, name)
		}
		sv.sessMu.Unlock()
	}
}

// uploadGrace is how long an upload session may sit idle before a tenant GC
// treats it as abandoned. Idle is measured from sessionModTime, which every
// staged chunk and every append to the object stage refreshes, so an
// actively resumed upload is never at risk — only sessions nobody has
// touched for this long.
const uploadGrace = time.Hour

// sessionModTime is when an upload session last changed: the newest mtime
// of its directory and the files in it. Appending to the object stage
// refreshes only that file's mtime, not the directory's.
func sessionModTime(dir string) time.Time {
	var newest time.Time
	if info, err := os.Stat(dir); err == nil {
		newest = info.ModTime()
	}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && info.ModTime().After(newest) {
			newest = info.ModTime()
		}
	}
	return newest
}

// stagedBytes sums the tenant's staged upload bytes across all sessions —
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

// usedExcept is the tenant's committed logical bytes, less those of the
// entry under key, which an upload to key would replace.
func (sv *Server) usedExcept(tenant, key string) int64 {
	_, used := sv.tenantUsage(tenant)
	if e, ok := sv.store.Stat(tenantPrefix(tenant) + key); ok {
		used -= sv.store.LogicalSize(e)
	}
	return used
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

// uploadNeeds computes what an upload session still lacks: the tail of the
// object past its staged prefix, and declared chunk objects neither staged
// nor already in the store — the dedup negotiation that makes re-uploads
// ship only new content.
func (sv *Server) uploadNeeds(tenant, id string, man *UploadManifest) UploadStatus {
	st := UploadStatus{ID: id}
	dir := sv.uploadDir(tenant, id)
	if info, err := os.Stat(filepath.Join(dir, "object")); err == nil {
		st.Staged = info.Size()
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
	seen := make(map[string]bool)
	for _, c := range man.Chunks {
		_, err := os.Stat(filepath.Join(dir, "b-"+c.ID))
		have := err == nil ||
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
	if !store.ValidObjectID(man.Object) {
		return fmt.Errorf("invalid object id")
	}
	if man.Size <= 0 {
		return fmt.Errorf("invalid object size %d", man.Size)
	}
	for _, c := range man.Chunks {
		if !store.ValidObjectID(c.ID) || c.Size < 0 {
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
	unlock := sv.lockSession(tenant, id)
	defer unlock()
	existing, ok, err := sv.loadManifest(tenant, id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if ok && (existing.Object != man.Object || existing.Size != man.Size) {
		// Deterministic IDs make this unreachable unless hashes collide or
		// a client lies; refuse rather than mix two artifacts' bytes.
		writeErr(w, http.StatusConflict, fmt.Errorf("upload %s already open for object %s (%d bytes)",
			id, existing.Object, existing.Size))
		return
	}
	// Admission control up front: reject an upload that cannot fit, before
	// the client ships a single byte. The declared sizes are all there is
	// to go on yet: the canonical form (framing included) and the chunks,
	// the bytes the session will stage. For an unchunked artifact that is
	// its logical size, which commit charges, plus the framing: an upload
	// within its framing of the quota is refused here, not mid-stream. A
	// fresh session also pays for every byte the tenant already has staged,
	// so sessions (each an fsynced manifest) cannot pile up past the quota;
	// a re-opened one's own stage is already inside its declared size.
	incoming := man.Size
	for _, c := range man.Chunks {
		incoming += c.Size
	}
	if !ok && pol.Quota > 0 {
		incoming += sv.stagedBytes(tenant)
	}
	if err := sv.quotaCheck(tenant, pol, man.Key, incoming); err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if !ok {
		// Fresh session: persist the manifest durably before acknowledging,
		// so a server killed after the ack still knows the session on
		// restart.
		dir := sv.uploadDir(tenant, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		data, _ := json.MarshalIndent(&man, "", " ")
		if err := store.WriteFileAtomic(filepath.Join(dir, "manifest.json"), data); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, sv.uploadNeeds(tenant, id, &man))
}

// quotaCheck admits incoming logical bytes for key against the tenant's
// byte quota. Replacing an existing key frees that key's logical bytes
// first.
func (sv *Server) quotaCheck(tenant string, pol Tenant, key string, incoming int64) error {
	if pol.Quota <= 0 {
		return nil
	}
	if used := sv.usedExcept(tenant, key); used+incoming > pol.Quota {
		return fmt.Errorf("tenant %s over quota: %d used + %d incoming > %d",
			tenant, used, incoming, pol.Quota)
	}
	return nil
}

func (sv *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request, tenant string, _ Tenant) {
	id := r.PathValue("id")
	unlock := sv.lockSession(tenant, id)
	defer unlock()
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

// handleUploadObject appends one byte range of the top object's canonical
// form to the session's stage. The range must start at the staged length
// and end inside the declared size; the body is read in wire-chunk pieces
// into one fixed buffer (never sized from a declaration) and appended
// without fsync — the stage is a resumption hint that commit's hash checks.
// Each piece is charged against the quota before it is appended. A body
// that ends early keeps what arrived, which is where the next PUT resumes.
func (sv *Server) handleUploadObject(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	id := r.PathValue("id")
	unlock := sv.lockSession(tenant, id)
	defer unlock()
	man, ok, err := sv.loadManifest(tenant, id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no upload %s", id))
		return
	}
	var first, last, size int64
	if _, err := fmt.Sscanf(r.Header.Get("Content-Range"), "bytes %d-%d/%d", &first, &last, &size); err != nil ||
		size != man.Size || first < 0 || last < first || last >= size {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("Content-Range %q does not fit the declared %d-byte object",
			r.Header.Get("Content-Range"), man.Size))
		return
	}
	f, err := os.OpenFile(filepath.Join(sv.uploadDir(tenant, id), "object"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if first != info.Size() {
		writeErr(w, http.StatusConflict, fmt.Errorf("range starts at byte %d, the stage holds %d", first, info.Size()))
		return
	}
	// Staged bytes are charged as they land, not only at upload-open:
	// otherwise a tenant could park unbounded never-committed bytes across
	// many sessions. The tenant's usage is summed once per request; a
	// budget already below zero refuses the first piece.
	var budget int64
	if pol.Quota > 0 {
		budget = pol.Quota - sv.usedExcept(tenant, man.Key) - sv.stagedBytes(tenant)
	}
	want := last - first + 1
	buf := make([]byte, min(want, DefaultWireChunk))
	var got int64
	for got < want {
		n, rerr := io.ReadFull(r.Body, buf[:min(int64(len(buf)), want-got)])
		if pol.Quota > 0 && got+int64(n) > budget {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("tenant %s over quota: staged upload bytes would exceed %d", tenant, pol.Quota))
			return
		}
		if _, err := f.Write(buf[:n]); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		got += int64(n)
		if rerr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("body ended at byte %d of range %d-%d", first+got, first, last))
			return
		}
	}
	if n, _ := r.Body.Read(buf[:1]); n > 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("body runs past its range %d-%d", first, last))
		return
	}
	if err := f.Close(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleUploadChunk stages one chunk object the session declared, verified
// under its content address on receipt and renamed into place after an
// fsync, so a chunk counted as present is whole.
func (sv *Server) handleUploadChunk(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
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
	if !slices.ContainsFunc(man.Chunks, func(c BlobRef) bool { return c.ID == blob }) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("chunk %s not declared by upload %s", blob, id))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, sv.opts.MaxBlob+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if int64(len(data)) > sv.opts.MaxBlob {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("chunk exceeds %d bytes", sv.opts.MaxBlob))
		return
	}
	if store.ObjectID(store.FileSet{"chunk": data}) != blob {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("chunk %s does not hash to its id", blob))
		return
	}
	if pol.Quota > 0 && sv.usedExcept(tenant, man.Key)+sv.stagedBytes(tenant)+int64(len(data)) > pol.Quota {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("tenant %s over quota: staged upload bytes would exceed %d", tenant, pol.Quota))
		return
	}
	if err := store.WriteFileAtomic(filepath.Join(sv.uploadDir(tenant, id), "b-"+blob), data); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleUploadCommit lands a complete upload: it parses the staged
// canonical form (refusing hostile frames), charges its logical size
// against the quota, and commits through PutAssembled under the declared
// object, which hashes the top once. A stage that does not parse or hash
// — damaged in flight, or torn by an OS crash under the unsynced stage — is
// wiped, so the client's retry starts from byte 0.
func (sv *Server) handleUploadCommit(w http.ResponseWriter, r *http.Request, tenant string, pol Tenant) {
	id := r.PathValue("id")
	unlock := sv.lockSession(tenant, id)
	defer unlock()
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
	dir := sv.uploadDir(tenant, id)
	storeKey := tenantPrefix(tenant) + man.Key
	if e, ok := sv.store.Stat(storeKey); ok && e.Object == man.Object {
		os.RemoveAll(dir)
		writeJSON(w, http.StatusOK, e)
		return
	}
	if st := sv.uploadNeeds(tenant, id, man); st.Staged != man.Size || len(st.NeedChunks) > 0 {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("upload %s incomplete: %d of %d object bytes staged, %d chunks missing",
				id, st.Staged, man.Size, len(st.NeedChunks)))
		return
	}
	body, err := os.ReadFile(filepath.Join(dir, "object"))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	top, err := store.ParseCanonical(body)
	if err != nil {
		os.RemoveAll(dir)
		writeStoreErr(w, err)
		return
	}
	if err := sv.quotaCheck(tenant, pol, man.Key, store.LogicalSizeOf(top)); err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
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
	e, err := sv.store.PutAssembled(storeKey, man.Kind, man.Object, top, chunks)
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) {
			os.RemoveAll(dir)
		}
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
	// grace. An active session's newest file refreshes with every staged
	// chunk and every append to the object stage, so the age gate only
	// catches uploads nobody will resume — the same rule the store applies
	// to tmp/ staging debris. The age is re-read under the session lock, so
	// a PUT that was streaming when the scan saw the session keeps it.
	updir := filepath.Join(sv.store.Root(), "uploads", tenant)
	if sessions, err := os.ReadDir(updir); err == nil {
		for _, sess := range sessions {
			dir := filepath.Join(updir, sess.Name())
			if time.Since(sessionModTime(dir)) < uploadGrace {
				continue
			}
			unlock := sv.lockSession(tenant, sess.Name())
			stale := time.Since(sessionModTime(dir)) >= uploadGrace
			if stale {
				err = os.RemoveAll(dir)
			}
			unlock()
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			if stale {
				res.StaleUploads++
			}
		}
	}
	writeJSON(w, http.StatusOK, res)
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
