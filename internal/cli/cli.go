// Package cli holds helpers shared by the command-line tools: loading PVM
// executables, populating guest filesystems from host paths, and printing
// run summaries.
package cli

import (
	"fmt"
	"os"
	"strings"

	"elfie/internal/elfobj"
	"elfie/internal/fault"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/vm"
)

// ParseELF parses an in-memory ELF image (e.g. a store artifact member).
// Malformed images classify as corrupt input.
func ParseELF(name string, buf []byte) (*elfobj.File, error) {
	f, err := elfobj.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptInput, name, err)
	}
	return f, nil
}

// LoadELF reads a PVM ELF file from disk. Malformed files classify as
// corrupt input.
func LoadELF(path string) (*elfobj.File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := elfobj.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptInput, path, err)
	}
	return f, nil
}

// WriteELF writes a PVM ELF file to disk.
func WriteELF(path string, f *elfobj.File) error {
	buf, err := f.Write()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o755)
}

// FSFlag collects repeated -in guestpath=hostpath mappings.
type FSFlag struct {
	Mappings []string
}

// String implements flag.Value.
func (f *FSFlag) String() string { return strings.Join(f.Mappings, ",") }

// Set implements flag.Value.
func (f *FSFlag) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want guestpath=hostpath, got %q", v)
	}
	f.Mappings = append(f.Mappings, v)
	return nil
}

// Populate copies the mapped host files into a guest filesystem.
func (f *FSFlag) Populate(fs *kernel.FS) error {
	for _, m := range f.Mappings {
		i := strings.Index(m, "=")
		guest, host := m[:i], m[i+1:]
		data, err := os.ReadFile(host)
		if err != nil {
			return fmt.Errorf("-in %s: %v", m, err)
		}
		fs.WriteFile(guest, data)
	}
	return nil
}

// NewSession composes a run session for an executable with the given
// filesystem, scheduler parameters, and optional fault plan. All tools build
// their machines through this one path, so scheduler defaults and fault
// arming are uniform across modes.
func NewSession(mode harness.Mode, exe *elfobj.File, fs *kernel.FS, seed int64, jitter int, budget uint64, argv []string, plan *fault.Plan) (*harness.Session, error) {
	return harness.New(harness.Config{
		Mode: mode, Exe: exe, Argv: argv, FS: fs,
		Seed: seed, Jitter: jitter, Budget: budget,
		Injector: fault.New(plan),
	})
}

// PrintRunSummary reports a finished machine run on stderr and forwards the
// guest's stdout/stderr.
func PrintRunSummary(m *vm.Machine) {
	os.Stdout.Write(m.Stdout())
	os.Stderr.Write(m.Stderr())
	fmt.Fprintf(os.Stderr, "[exit=%d retired=%d threads=%d", m.ExitStatus, m.GlobalRetired, len(m.Threads))
	for _, t := range m.Threads {
		fmt.Fprintf(os.Stderr, " t%d=%d", t.TID, t.Retired)
		for _, pc := range t.PerfCounters() {
			fmt.Fprintf(os.Stderr, "(perf=%d,fired=%v)", pc.Count(t), pc.Fired)
		}
	}
	if m.FatalFault != nil {
		fmt.Fprintf(os.Stderr, " FAULT: %v", m.FatalFault)
	}
	fmt.Fprintln(os.Stderr, "]")
}

// Die prints an error and exits.
func Die(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
