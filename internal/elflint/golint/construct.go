package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
)

// rawConstructors are the vm entry points that compose a machine by hand.
// Production code must go through internal/harness instead, so scheduler
// quanta, seeds, and fault arming stay defined in exactly one place.
var rawConstructors = map[string]bool{
	"NewLoaded":     true,
	"NewRoundRobin": true,
}

// constructExempt lists directories (relative to the repo root) whose
// non-test sources may call the raw vm constructors: the harness itself,
// and the vm package that defines them.
var constructExempt = []string{
	filepath.Join("internal", "harness"),
	filepath.Join("internal", "vm"),
}

// LintConstruction walks every non-test Go file under root and reports each
// call of vm.NewLoaded or vm.NewRoundRobin outside the exempt packages.
// Test files are exempt: tests legitimately build bespoke machines to poke
// at edge cases.
func LintConstruction(root string) ([]Diagnostic, error) {
	return walkGoFiles(root, constructExempt, lintFileConstruction)
}

// lintFileConstruction reports raw vm constructor calls in one parsed file.
func lintFileConstruction(fset *token.FileSet, file *ast.File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !rawConstructors[sel.Sel.Name] {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "vm" {
			return true
		}
		pos := fset.Position(call.Pos())
		diags = append(diags, Diagnostic{
			Pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
			Msg: fmt.Sprintf("raw vm.%s call; compose the machine through internal/harness so scheduler and fault defaults stay in one place", sel.Sel.Name),
		})
		return true
	})
	return diags
}

// hookExempt lists directories whose non-test sources may write individual
// vm.Hooks fields: the vm package that defines and fires them, and the pin
// package whose Engine.Attach composes tools onto them.
var hookExempt = []string{
	filepath.Join("internal", "pin"),
	filepath.Join("internal", "vm"),
}

// LintHookComposition walks every non-test Go file under root and reports
// each assignment to a field of a .Hooks selector (m.Hooks.OnIns = ...)
// outside the exempt packages. Tools attach through pin.Engine, which
// composes them in place; a hand-written wrapper can silently drop an
// earlier tool's hook or defeat the VM's fast-path selection. Saving and
// restoring the whole struct (m.Hooks = saved) stays allowed.
func LintHookComposition(root string) ([]Diagnostic, error) {
	return walkGoFiles(root, hookExempt, lintFileHookComposition)
}

// lintFileHookComposition reports hook-field writes in one parsed file.
func lintFileHookComposition(fset *token.FileSet, file *ast.File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			field, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if hooks, ok := field.X.(*ast.SelectorExpr); ok && hooks.Sel.Name == "Hooks" {
				pos := fset.Position(lhs.Pos())
				diags = append(diags, Diagnostic{
					Pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
					Msg: fmt.Sprintf("direct write to Hooks.%s; attach a pin.Tool through pin.Engine so hooks compose in one place", field.Sel.Name),
				})
			}
		}
		return true
	})
	return diags
}
