package pinball

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
)

// FormatVersion is the pinball format written by Save. Version 2 adds the
// integrity manifest (per-file CRC32 + size) to *.global.log; version-1
// pinballs still load, flagged Unverified. Version 3 adds mid-run
// checkpoints: an optional Checkpoint block in the metadata plus a
// <name>.fs member carrying the kernel filesystem image (see checkpoint.go).
// Version 4 stores a run of all-zero pages in .text as a record with a
// length and no bytes (see textRecords); older .text members, whose flags
// word is always 0, still load.
const FormatVersion = 4

// maxThreads bounds the thread count accepted from untrusted metadata, so a
// corrupt global.log cannot drive huge allocations or file scans.
const maxThreads = 4096

// Error taxonomy for checkpoint loading. All load failures wrap one of
// these, so callers classify with errors.Is instead of string matching.
var (
	// ErrCorrupt marks content that fails its CRC or does not parse.
	ErrCorrupt = errors.New("pinball: corrupt")
	// ErrTruncated marks files shorter than recorded, or missing members
	// of the pinball file set.
	ErrTruncated = errors.New("pinball: truncated")
	// ErrVersionMismatch marks pinballs written by a newer format than
	// this reader supports.
	ErrVersionMismatch = errors.New("pinball: format version mismatch")
)

// FileDigest is the recorded integrity of one pinball file.
type FileDigest struct {
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest is the versioned integrity record Save embeds in *.global.log:
// a digest for every other file of the pinball set. Read verifies each
// file against it before parsing.
type Manifest struct {
	FormatVersion int                   `json:"format_version"`
	Files         map[string]FileDigest `json:"files"`
}

func digest(data []byte) FileDigest {
	return FileDigest{Size: int64(len(data)), CRC32: crc32.ChecksumIEEE(data)}
}

// verify checks one file's bytes against the manifest entry for name.
func (m *Manifest) verify(name string, data []byte) error {
	d, ok := m.Files[name]
	if !ok {
		return fmt.Errorf("%w: %s has no manifest entry", ErrCorrupt, name)
	}
	if int64(len(data)) < d.Size {
		return fmt.Errorf("%w: %s is %d bytes, manifest records %d",
			ErrTruncated, name, len(data), d.Size)
	}
	if int64(len(data)) != d.Size || crc32.ChecksumIEEE(data) != d.CRC32 {
		return fmt.Errorf("%w: %s fails its CRC32 check", ErrCorrupt, name)
	}
	return nil
}

// checkRegFiles validates that the set of <name>.<tid>.reg files in the
// source is exactly {0 .. numThreads-1}: a missing register file otherwise
// surfaces later as a confusing per-thread open error.
func checkRegFiles(src source, name string, numThreads int) error {
	tids, err := src.regTIDs(name)
	if err != nil {
		return err
	}
	present := make(map[int]bool)
	for _, tid := range tids {
		present[tid] = true
	}
	var missing, extra []string
	for tid := 0; tid < numThreads; tid++ {
		if !present[tid] {
			missing = append(missing, fmt.Sprintf("%s.%d.reg", name, tid))
		}
	}
	for tid := range present {
		if tid < 0 || tid >= numThreads {
			extra = append(extra, fmt.Sprintf("%s.%d.reg", name, tid))
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 {
		return fmt.Errorf("%w: global.log declares %d threads but %s missing",
			ErrTruncated, numThreads, strings.Join(missing, ", "))
	}
	if len(extra) > 0 {
		return fmt.Errorf("%w: global.log declares %d threads but extra register files present (%s)",
			ErrCorrupt, numThreads, strings.Join(extra, ", "))
	}
	return nil
}
