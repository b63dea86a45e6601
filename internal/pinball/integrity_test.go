package pinball

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elfie/internal/fault"
)

func TestManifestWrittenAndVerified(t *testing.T) {
	dir := t.TempDir()
	pb := samplePinball()
	if err := pb.Save(dir); err != nil {
		t.Fatal(err)
	}
	var meta Meta
	data, _ := os.ReadFile(filepath.Join(dir, "sample.global.log"))
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Version != FormatVersion {
		t.Errorf("written version = %d, want %d", meta.Version, FormatVersion)
	}
	if meta.Manifest == nil || meta.Manifest.FormatVersion != FormatVersion {
		t.Fatalf("manifest: %+v", meta.Manifest)
	}
	// One digest per non-metadata file: .text, .race, .sel, two .reg.
	if len(meta.Manifest.Files) != 5 {
		t.Errorf("manifest files: %v", meta.Manifest.Files)
	}
	got, err := Load(dir, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if got.Unverified {
		t.Error("manifest-carrying pinball loaded as unverified")
	}
	// Save must not mutate the in-memory pinball it was called on.
	if pb.Meta.Manifest != nil || pb.Meta.Version != 1 {
		t.Errorf("Save mutated Meta: version=%d manifest=%v", pb.Meta.Version, pb.Meta.Manifest)
	}
}

// corruptOneByte flips a byte in the middle of a saved file.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTypedCorruptionErrors(t *testing.T) {
	for _, suffix := range []string{".text", ".0.reg", ".sel", ".race"} {
		t.Run("bitflip"+suffix, func(t *testing.T) {
			dir := t.TempDir()
			if err := samplePinball().Save(dir); err != nil {
				t.Fatal(err)
			}
			corruptOneByte(t, filepath.Join(dir, "sample"+suffix))
			_, err := Load(dir, "sample")
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("bit-flip in %s: err = %v, want ErrCorrupt", suffix, err)
			}
		})
		t.Run("truncate"+suffix, func(t *testing.T) {
			dir := t.TempDir()
			if err := samplePinball().Save(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "sample"+suffix)
			data, _ := os.ReadFile(path)
			if len(data) < 2 {
				t.Skip("file too small to truncate")
			}
			os.WriteFile(path, data[:len(data)/2], 0o644)
			_, err := Load(dir, "sample")
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("truncated %s: err = %v, want ErrTruncated", suffix, err)
			}
		})
	}
}

func TestVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	pb := samplePinball()
	if err := pb.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sample.global.log")
	var meta Meta
	data, _ := os.ReadFile(path)
	json.Unmarshal(data, &meta)
	meta.Version = FormatVersion + 5
	out, _ := json.Marshal(&meta)
	os.WriteFile(path, out, 0o644)
	if _, err := Load(dir, "sample"); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("future meta version: %v", err)
	}

	meta.Version = FormatVersion
	meta.Manifest.FormatVersion = FormatVersion + 1
	out, _ = json.Marshal(&meta)
	os.WriteFile(path, out, 0o644)
	if _, err := Load(dir, "sample"); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("future manifest version: %v", err)
	}
}

func TestLegacyPinballLoadsUnverified(t *testing.T) {
	dir := t.TempDir()
	pb := samplePinball()
	if err := pb.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Strip the manifest and store every byte of the memory image, as a
	// version-1 writer would have produced.
	if err := os.WriteFile(filepath.Join(dir, "sample.text"), v3Text(pb.Pages), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sample.global.log")
	var meta Meta
	data, _ := os.ReadFile(path)
	json.Unmarshal(data, &meta)
	meta.Version = 1
	meta.Manifest = nil
	out, _ := json.MarshalIndent(&meta, "", "  ")
	os.WriteFile(path, out, 0o644)

	got, err := Load(dir, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Unverified {
		t.Error("legacy pinball not flagged unverified")
	}
	if got.Meta.NumThreads != 2 || len(got.Pages) != 2 {
		t.Errorf("legacy content lost: %+v", got.Meta)
	}
}

func TestThreadCountRegFileMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := samplePinball().Save(dir); err != nil {
		t.Fatal(err)
	}
	// Remove one reg file: the mismatch must be named up front, not surface
	// as a per-thread open error.
	os.Remove(filepath.Join(dir, "sample.1.reg"))
	_, err := Load(dir, "sample")
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing reg file: err = %v, want ErrTruncated", err)
	}
	if want := "sample.1.reg"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error does not name the missing file: %v", err)
	}

	// An extra reg file beyond the declared thread count is a mismatch too.
	dir2 := t.TempDir()
	pb := samplePinball()
	if err := pb.Save(dir2); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir2, "sample.7.reg"),
		[]byte(FormatRegs(&pb.Regs[0])), 0o644)
	_, err = Load(dir2, "sample")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("extra reg file: err = %v, want ErrCorrupt", err)
	}

	// Files of a similarly named pinball in the same directory are ignored.
	dir3 := t.TempDir()
	pb3 := samplePinball()
	if err := pb3.Save(dir3); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir3, "sample.alt.0.reg"), []byte("x"), 0o644)
	if _, err := Load(dir3, "sample"); err != nil {
		t.Errorf("neighbour pinball files broke the load: %v", err)
	}
}

func TestImplausibleThreadCount(t *testing.T) {
	dir := t.TempDir()
	if err := samplePinball().Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sample.global.log")
	var meta Meta
	data, _ := os.ReadFile(path)
	json.Unmarshal(data, &meta)
	for _, n := range []int{-1, maxThreads + 1} {
		meta.NumThreads = n
		out, _ := json.Marshal(&meta)
		os.WriteFile(path, out, 0o644)
		if _, err := Load(dir, "sample"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("NumThreads=%d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestReadWithFaultInjector(t *testing.T) {
	dir := t.TempDir()
	if err := samplePinball().Save(dir); err != nil {
		t.Fatal(err)
	}
	// A bit-flip injected on the .text read must be caught by the CRC.
	inj := fault.New(&fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Point: fault.PinballBitflip, File: ".text", Count: 1, Offset: -1},
	}})
	_, err := Read(dir, "sample", ReadOptions{Fault: inj})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("injected bit-flip: err = %v, want ErrCorrupt", err)
	}
	if inj.InjectedCount(fault.PinballBitflip) != 1 {
		t.Errorf("events: %v", inj.Events())
	}
	// Injection budget spent: the next read succeeds (re-log/backoff model).
	if _, err := Read(dir, "sample", ReadOptions{Fault: inj}); err != nil {
		t.Errorf("second read after budget exhausted: %v", err)
	}

	// Truncation injected on a reg file must surface as ErrTruncated.
	inj2 := fault.New(&fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Point: fault.PinballTruncate, File: ".0.reg", Count: 1, Offset: 10},
	}})
	_, err = Read(dir, "sample", ReadOptions{Fault: inj2})
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("injected truncation: err = %v, want ErrTruncated", err)
	}
}

func TestErrorStringsAreTyped(t *testing.T) {
	// Every taxonomy error prefixes its message, so stderr output stays
	// greppable even when the typed value is lost.
	for _, e := range []error{ErrCorrupt, ErrTruncated, ErrVersionMismatch} {
		if e.Error() == "" {
			t.Error("empty error string")
		}
	}
	wrapped := fmt.Errorf("%w: context", ErrCorrupt)
	if !errors.Is(wrapped, ErrCorrupt) {
		t.Error("wrapping broken")
	}
}
