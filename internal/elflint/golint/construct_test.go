package golint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoUsesHarness is the real gate: no production code outside
// internal/harness and internal/vm may call the raw vm constructors.
func TestRepoUsesHarness(t *testing.T) {
	diags, err := LintConstruction(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestFlagsRawConstruction checks the lint catches both constructors and
// leaves harness-routed and non-vm calls alone.
func TestFlagsRawConstruction(t *testing.T) {
	root := t.TempDir()
	must := func(rel, src string) { writeSource(t, root, rel, src) }
	must("internal/tool/tool.go", `package tool

func bad() {
	m, _ := vm.NewLoaded(k, exe, nil, nil)
	m.Sched = vm.NewRoundRobin(100, 0, 0)
	_ = harness.New(cfg)      // fine: the sanctioned path
	_ = other.NewLoaded(x)    // fine: not package vm
}
`)
	must("internal/harness/harness.go", `package harness

func ok() { _, _ = vm.NewLoaded(k, exe, nil, nil) }
`)
	must("internal/vm/vm.go", `package vm

func ok() { _ = NewRoundRobin(100, 0, 0) }
`)
	must("internal/tool/tool_test.go", `package tool

func testOnly() { _, _ = vm.NewLoaded(k, exe, nil, nil) }
`)

	diags, err := LintConstruction(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
	all := diags[0].String() + "\n" + diags[1].String()
	for _, want := range []string{"vm.NewLoaded", "vm.NewRoundRobin", "internal/harness"} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in:\n%s", want, all)
		}
	}
	for _, d := range diags {
		if !strings.Contains(d.Pos, filepath.Join("internal", "tool", "tool.go")) {
			t.Errorf("diagnostic outside the offending file: %s", d)
		}
	}
}

// TestRepoComposesHooksThroughPin is the real gate: no production code
// outside internal/pin and internal/vm may write a vm.Hooks field.
func TestRepoComposesHooksThroughPin(t *testing.T) {
	diags, err := LintHookComposition(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestFlagsHookFieldWrites checks the lint catches plain and compound
// hook-field writes, and leaves whole-struct save/restore, reads, the
// exempt packages and test files alone.
func TestFlagsHookFieldWrites(t *testing.T) {
	root := t.TempDir()
	must := func(rel, src string) { writeSource(t, root, rel, src) }
	must("internal/tool/tool.go", `package tool

func bad(m *vm.Machine) {
	prev := m.Hooks.OnIns          // fine: a read
	m.Hooks.OnIns = nil
	s.Machine.Hooks.OnMarker, x = f, 1
	saved := m.Hooks
	m.Hooks = saved                // fine: whole-struct restore
	_ = prev
}
`)
	must("internal/pin/pin.go", `package pin

func ok(h *vm.Hooks, m *vm.Machine) { m.Hooks.OnIns = nil }
`)
	must("internal/vm/vm.go", `package vm

func ok(m *Machine) { m.Hooks.OnFault = nil }
`)
	must("internal/tool/tool_test.go", `package tool

func testOnly(m *vm.Machine) { m.Hooks.OnIns = nil }
`)

	diags, err := LintHookComposition(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
	all := diags[0].String() + "\n" + diags[1].String()
	for _, want := range []string{"Hooks.OnIns", "Hooks.OnMarker", "pin.Engine", filepath.Join("internal", "tool", "tool.go")} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in:\n%s", want, all)
		}
	}
}

func TestConstructionSkipsUnparsableDirs(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A broken file under testdata must not fail the walk.
	if err := os.WriteFile(filepath.Join(root, "testdata", "junk.go"), []byte("not go"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := LintConstruction(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("unexpected diagnostics: %v", diags)
	}
}

// writeSource writes one source file under root, creating its directory.
func writeSource(t *testing.T, root, rel, src string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}
